package serve

// The read side of the write-ahead log: scan segments in order,
// validate every frame, and rebuild the merged-log prefix a restarted
// service resumes from.
//
// The torn-tail rule: a frame-level failure — truncated header,
// truncated payload, checksum mismatch — is the signature of a crash
// mid-write, so recovery stops there, keeps everything before it, and
// reports the tear (RecoveredLog.Torn) so the writer can truncate the
// file and resume appending at that exact byte. Everything after the
// first bad frame is dropped even if later bytes happen to look like
// frames: an append-only log can only tear at its tail, so bytes past
// a tear are either garbage or half-written.
//
// A job record is one frame, its idempotency key included, so a tear
// can never separate a key from its job: either both are recovered or
// neither is.
//
// A structurally valid frame whose *content* is wrong — an unparseable
// job line, an arrival off the slot grid, a duplicate id, a segment
// header naming the wrong segment or format version — is NOT a crash
// artifact (the checksum proves those bytes were written
// deliberately), so it surfaces as a named ErrWALCorrupt instead of
// being silently truncated away. Recovery never panics on any input;
// FuzzRecoverWAL holds it to that.

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"

	"repro/internal/workload"
)

// Named recovery errors. errors.Is matches them through the wrapped
// context every failure carries.
var (
	// ErrWALCorrupt: a checksummed frame holds content the writer could
	// never have produced (bad job line, off-grid arrival, duplicate
	// id, mismatched segment header). The log needs operator attention;
	// auto-truncating it could silently discard acked submissions.
	ErrWALCorrupt = errors.New("serve: wal corrupt")
	// ErrWALGap: the segment chain is missing a middle segment, so the
	// recovered prefix would have a hole — unrecoverable automatically.
	ErrWALGap = errors.New("serve: wal segment gap")
	// ErrWALSpacing: the recovered log was merged at a different
	// virtual-arrival spacing than the service is configured for.
	ErrWALSpacing = errors.New("serve: wal spacing mismatch")
)

// IdemEntry is one recovered idempotency binding: a retry of Key must
// return job ID instead of sequencing a new job.
type IdemEntry struct {
	Key string
	ID  string
}

// TornTail locates the first bad frame of a recovered WAL: everything
// from Offset in Segment onward is dropped.
type TornTail struct {
	Segment int
	Offset  int64
	// Reason is the frame error that marked the tear.
	Reason string
}

// RecoveredLog is the state rebuilt from a WAL directory.
type RecoveredLog struct {
	// Jobs is the recovered merged-log prefix, in log order; job i's
	// arrival is i·SpacingMS, exactly as the uninterrupted run merged
	// it.
	Jobs []workload.TraceJob
	// Idem holds the idempotency bindings of the recovered jobs in log
	// order. A key torn off with its job record is gone with it: its
	// submitter was never acked, and the retry must re-sequence.
	Idem []IdemEntry
	// SpacingMS is the virtual-arrival spacing recorded in the segment
	// headers; 0 when the directory held no readable segments.
	SpacingMS int64
	// Segments counts the segment files present on disk (including any
	// past the tear that recovery dropped).
	Segments int
	// Torn is non-nil when the log ended in a torn tail rather than a
	// clean frame boundary.
	Torn *TornTail
}

// RecoverWAL scans a WAL directory and rebuilds the merged-log prefix.
// It is read-only: truncating the tear on disk is the writer's job
// (the service does it when it reopens the WAL for appending). An
// empty or absent directory recovers an empty log.
func RecoverWAL(dir string) (*RecoveredLog, error) {
	segs, err := walSegments(dir)
	if err != nil {
		return nil, err
	}
	rec := &RecoveredLog{Segments: len(segs)}
	seen := make(map[string]bool)
	for n, path := range segs {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil, fmt.Errorf("serve: wal: %w", err)
		}
		// The first frame is the segment header, so even an empty
		// segment reads one frame (and tears at offset 0).
		var off int64
		for first := true; first || len(data) > 0; first = false {
			payload, rest, err := workload.ReadFrame(data)
			if err != nil {
				rec.Torn = &TornTail{Segment: n, Offset: off, Reason: err.Error()}
				return rec, nil
			}
			if first {
				if err := rec.checkHeader(n, string(payload)); err != nil {
					return nil, err
				}
			} else if err := rec.addJob(string(payload), seen); err != nil {
				return nil, fmt.Errorf("%w: segment %d offset %d: %v", ErrWALCorrupt, n, off, err)
			}
			off += int64(workload.FrameSize(len(payload)))
			data = rest
		}
	}
	return rec, nil
}

// checkHeader validates segment n's header record against the chain
// recovered so far, adopting the first segment's spacing.
func (rec *RecoveredLog) checkHeader(n int, line string) error {
	v, err := parseHeader(line, walMagic, "seg", "spacing")
	if err != nil {
		return fmt.Errorf("%w: segment %d header: %v", ErrWALCorrupt, n, err)
	}
	if v[0] != int64(n) {
		return fmt.Errorf("%w: segment file %d declares index %d", ErrWALCorrupt, n, v[0])
	}
	if n > 0 && v[1] != rec.SpacingMS {
		return fmt.Errorf("%w: segment %d merged at %d ms, chain started at %d ms",
			ErrWALCorrupt, n, v[1], rec.SpacingMS)
	}
	rec.SpacingMS = v[1]
	return nil
}

// addJob decodes one job record — an optional "# idem <key>" line,
// then the trace line — and appends it to the recovered log.
func (rec *RecoveredLog) addJob(payload string, seen map[string]bool) error {
	key := ""
	if rest, ok := strings.CutPrefix(payload, walIdemPrefix); ok {
		line, job, ok := strings.Cut(rest, "\n")
		f := strings.Fields(line)
		if !ok || len(f) != 1 {
			return fmt.Errorf("bad idem line %q", line)
		}
		key, payload = f[0], job
	}
	if strings.HasPrefix(payload, "#") {
		return fmt.Errorf("unexpected directive %q", payload)
	}
	jobs, err := workload.ParseTrace(strings.NewReader(payload))
	if err != nil || len(jobs) != 1 {
		return fmt.Errorf("bad job record: %v", err)
	}
	tj := jobs[0]
	if seen[tj.ID] {
		return fmt.Errorf("duplicate job id %q", tj.ID)
	}
	if want := int64(len(rec.Jobs)) * rec.SpacingMS; tj.ArrivalMS != want {
		return fmt.Errorf("job %q arrival %d ms, slot grid says %d ms", tj.ID, tj.ArrivalMS, want)
	}
	seen[tj.ID] = true
	rec.Jobs = append(rec.Jobs, tj)
	if key != "" {
		rec.Idem = append(rec.Idem, IdemEntry{Key: key, ID: tj.ID})
	}
	return nil
}

// walSegments lists the directory's segment files in chain order,
// requiring the chain to start at 0 and be contiguous.
func walSegments(dir string) ([]string, error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("serve: wal: %w", err)
	}
	idx := make(map[int]string)
	max := -1
	for _, e := range entries {
		name := e.Name()
		var n int
		if _, err := fmt.Sscanf(name, "wal-%d.seg", &n); err != nil || walSegmentName(n) != name {
			continue // not a segment file; leave it alone
		}
		idx[n] = filepath.Join(dir, name)
		if n > max {
			max = n
		}
	}
	segs := make([]string, 0, len(idx))
	for n := 0; n <= max; n++ {
		path, ok := idx[n]
		if !ok {
			return nil, fmt.Errorf("%w: segment %d of %d missing", ErrWALGap, n, max)
		}
		segs = append(segs, path)
	}
	return segs, nil
}

// parseHeader validates a stream's header record — "# <magic>"
// followed by one "<key> <value>" pair per key, in order — and returns
// the values. Every value is a non-negative integer and "spacing" is
// positive.
func parseHeader(line, magic string, keys ...string) ([]int64, error) {
	f := strings.Fields(line)
	if len(f) != 3+2*len(keys) || f[0] != "#" || f[1]+" "+f[2] != magic {
		return nil, fmt.Errorf("bad header %q", strings.TrimSuffix(line, "\n"))
	}
	v := make([]int64, len(keys))
	for i, key := range keys {
		n, err := strconv.ParseInt(f[4+2*i], 10, 64)
		if f[3+2*i] != key || err != nil || n < 0 || (key == "spacing" && n == 0) {
			return nil, fmt.Errorf("bad %s %q in header %q", key, f[4+2*i], strings.TrimSuffix(line, "\n"))
		}
		v[i] = n
	}
	return v, nil
}
