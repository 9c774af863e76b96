package serve

// The durability layer under the sequencer: a segmented write-ahead
// log. Every job the merger flushes into the request log is first
// appended here as one CRC+length-framed record (workload.AppendFrame)
// whose payload is exactly the workload-trace line the request log
// carries — preceded, inside the same frame, by an "# idem <key>" line
// when the submission carried an idempotency key. The frame's checksum
// makes the pair atomic: a torn tail drops the key and the job
// together (the client was never acked), and no recovered job can lose
// its key, which is what makes retried submissions exactly-once across
// a crash.
//
// Segments are numbered files (wal-00000000.seg, wal-00000001.seg, …);
// each opens with a header frame
//
//	# snwal 2 seg <n> spacing <ms>
//
// that pins the format version, the segment's position in the chain
// and the virtual-arrival spacing the log was merged at. Rotation
// happens when a segment passes SegmentBytes.
//
// Durability policy: on-ack. Every merge batch is fsynced before any
// of its submitters is acked, so an acked submission survives kill -9.

import (
	"fmt"
	"os"
	"path/filepath"

	"repro/internal/workload"
)

const (
	walMagic = "snwal 2"
	// DefaultSegmentBytes rotates WAL segments at 1 MiB unless
	// Config.SegmentBytes overrides it.
	DefaultSegmentBytes = 1 << 20
)

// walSegmentName renders the file name of segment n.
func walSegmentName(n int) string { return fmt.Sprintf("wal-%08d.seg", n) }

// walHeaderLine renders segment n's header-frame payload.
func walHeaderLine(n int, spacingMS int64) string {
	return fmt.Sprintf("# %s seg %d spacing %d\n", walMagic, n, spacingMS)
}

// wal is the append side of the write-ahead log. It is not
// goroutine-safe: the Service serializes appends under its own lock
// (the merger is the single writer).
type wal struct {
	dir          string
	spacingMS    int64
	segmentBytes int64

	f       *os.File // current segment
	seg     int      // current segment index
	size    int64    // current segment size in bytes
	records int      // job records appended over the WAL lifetime
	durable int      // job records covered by the last fsync
	scratch []byte   // frame-encoding buffer, reused across appends
}

// openWALSegment opens segment n for appending, creating it with its
// header frame when fresh. size is the current byte size (0 for a new
// segment).
func (w *wal) openSegment(n int, size int64) error {
	path := filepath.Join(w.dir, walSegmentName(n))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("serve: wal: open segment: %w", err)
	}
	if _, err := f.Seek(size, 0); err != nil {
		f.Close()
		return fmt.Errorf("serve: wal: seek segment: %w", err)
	}
	w.f, w.seg, w.size = f, n, size
	if size == 0 {
		w.scratch = workload.AppendFrame(w.scratch[:0], []byte(walHeaderLine(n, w.spacingMS)))
		if err := w.write(w.scratch); err != nil {
			return err
		}
	}
	return nil
}

// write appends raw bytes to the current segment, tracking its size.
func (w *wal) write(b []byte) error {
	n, err := w.f.Write(b)
	w.size += int64(n)
	if err != nil {
		return fmt.Errorf("serve: wal: write: %w", err)
	}
	return nil
}

// appendJob appends one sequenced job as one frame — its idempotency
// line first, when key is non-empty, then the trace line — rotating
// the segment beforehand if the current one is full. The caller
// decides when to commit (fsync); see commit.
func (w *wal) appendJob(tj workload.TraceJob, key string) error {
	if w.f == nil {
		return fmt.Errorf("serve: wal: append after close")
	}
	if w.size >= w.segmentBytes {
		if err := w.rotate(); err != nil {
			return err
		}
	}
	w.scratch = workload.AppendFrame(w.scratch[:0], []byte(walRecord(tj, key)))
	if err := w.write(w.scratch); err != nil {
		return err
	}
	w.records++
	return nil
}

// rotate fsyncs and closes the current segment and opens the next one.
func (w *wal) rotate() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("serve: wal: sync on rotate: %w", err)
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("serve: wal: close on rotate: %w", err)
	}
	w.durable = w.records
	return w.openSegment(w.seg+1, 0)
}

// commit fsyncs the records appended since the last sync; it runs
// after every merge batch, before the batch's submitters are acked. It
// reports how many job records are durable after the call.
func (w *wal) commit() (durable int, err error) {
	if w.records > w.durable {
		err = w.sync()
	}
	return w.durable, err
}

// sync fsyncs the current segment. A closed WAL has nothing to sync.
func (w *wal) sync() error {
	if w.f == nil {
		return nil
	}
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("serve: wal: sync: %w", err)
	}
	w.durable = w.records
	return nil
}

// close fsyncs and closes the current segment.
func (w *wal) close() error {
	if w.f == nil {
		return nil
	}
	err := w.sync()
	if cerr := w.f.Close(); err == nil && cerr != nil {
		err = fmt.Errorf("serve: wal: close: %w", cerr)
	}
	w.f = nil
	return err
}

// openWAL recovers whatever the directory holds — truncating a torn
// tail in place, removing any segments past the tear — and returns the
// append handle positioned after the recovered prefix plus the
// recovered state itself. A fresh (empty or absent) directory starts
// at segment 0. spacingMS must match the recovered log's spacing; a
// mismatch is ErrWALSpacing.
func openWAL(dir string, spacingMS int64, segmentBytes int64) (*wal, *RecoveredLog, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("serve: wal: %w", err)
	}
	rec, err := RecoverWAL(dir)
	if err != nil {
		return nil, nil, err
	}
	if rec.SpacingMS != 0 && rec.SpacingMS != spacingMS {
		return nil, nil, fmt.Errorf("%w: log merged at %d ms, service configured for %d ms",
			ErrWALSpacing, rec.SpacingMS, spacingMS)
	}
	if segmentBytes <= 0 {
		segmentBytes = DefaultSegmentBytes
	}
	w := &wal{dir: dir, spacingMS: spacingMS, segmentBytes: segmentBytes}
	w.records, w.durable = len(rec.Jobs), len(rec.Jobs)

	// Make the tear physical: truncate the torn segment at the last
	// good frame and delete every segment after it, so the append
	// position is exactly the end of the recovered prefix. A tear at
	// offset 0 restarts the segment (openSegment rewrites the header).
	seg, size := 0, int64(0)
	if tt := rec.Torn; tt != nil {
		for n := tt.Segment + 1; n < rec.Segments; n++ {
			if err := os.Remove(filepath.Join(dir, walSegmentName(n))); err != nil && !os.IsNotExist(err) {
				return nil, nil, fmt.Errorf("serve: wal: drop torn segment: %w", err)
			}
		}
		if err := os.Truncate(filepath.Join(dir, walSegmentName(tt.Segment)), tt.Offset); err != nil {
			return nil, nil, fmt.Errorf("serve: wal: truncate torn tail: %w", err)
		}
		seg, size = tt.Segment, tt.Offset
	} else if rec.Segments > 0 {
		seg = rec.Segments - 1
		info, err := os.Stat(filepath.Join(dir, walSegmentName(seg)))
		if err != nil {
			return nil, nil, fmt.Errorf("serve: wal: %w", err)
		}
		size = info.Size()
	}
	if err := w.openSegment(seg, size); err != nil {
		return nil, nil, err
	}
	return w, rec, nil
}

// walIdemPrefix opens the idempotency line of a keyed job record.
const walIdemPrefix = "# idem "

// walRecord is the payload of one job's WAL frame: the idempotency
// line when key is non-empty, then the trace line.
func walRecord(tj workload.TraceJob, key string) string {
	line := workload.FormatJob(tj)
	if key != "" {
		line = walIdemPrefix + key + "\n" + line
	}
	return line
}
