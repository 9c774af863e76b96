package serve

// Log-compaction checkpoints. A checkpoint captures the service's
// resumable replay — the scheduler state with every event below the
// watermark already processed — as a self-contained byte artifact, so
// a restarted service (or an offline auditor) can resume the replay
// from the watermark instead of re-running the whole request log.
// Determinism makes the artifact verifiable: resuming a checkpoint and
// draining it yields byte-for-byte the result of a full replay of the
// same log.
//
// Framing is line-based and self-describing:
//
//	snckpt 1
//	seq <merged jobs> <spacing ms>
//	sched <payload bytes>
//	<sched.EncodeSnapshot payload>
//	idem <key> <id>        (zero or more)
//	end
//
// The idem lines — added for crash-safe serving — persist the
// idempotency bindings of sequenced jobs, so a service restored from a
// checkpoint keeps deduplicating retries. They sit between the sched
// payload and the end marker; a checkpoint without them (the original
// format) still decodes, so old artifacts remain restorable.
//
// The decoder validates every field and never panics on malformed
// input (fuzzed in snapshot_test.go).

import (
	"bytes"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/sched"
)

const ckptMagic = "snckpt 1"

// ErrBadCheckpoint is the sentinel under every RestoreCheckpoint
// decode failure; errors.Is matches it through the per-field context.
var ErrBadCheckpoint = errors.New("serve: bad checkpoint")

// Checkpoint serializes the service's current resumable replay. The
// artifact covers every job sequenced so far (processed up to the
// watermark, pending above it); appending later log entries to the
// restored replay reproduces the full-log result exactly.
func (s *Service) Checkpoint() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.incErr != nil {
		return nil, s.incErr
	}
	payload := sched.EncodeSnapshot(s.inc)
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\nseq %d %d\nsched %d\n", ckptMagic, len(s.log), s.cfg.SpacingMS, len(payload))
	b.Write(payload)
	// Idempotency bindings of sequenced jobs, in insertion order, so a
	// restore rebuilds the same bounded index.
	for _, key := range s.idemOrder {
		if j := s.idem[key]; j != nil && j.seq >= 0 {
			fmt.Fprintf(&b, "idem %s %s\n", key, j.tj.ID)
		}
	}
	b.WriteString("end\n")
	s.lg.Info("checkpoint written", "seq", len(s.log), "bytes", b.Len())
	return b.Bytes(), nil
}

// Checkpoint is a restored compaction artifact: the resumable replay
// plus the log position it covers.
type CheckpointState struct {
	// Seq is the number of request-log entries the checkpoint covers;
	// resume by appending log entries seq, seq+1, ... to Replay.
	Seq int
	// SpacingMS is the virtual arrival spacing the log was merged at.
	SpacingMS int64
	// Idem holds the persisted idempotency bindings in insertion
	// order; empty for artifacts from before the idem extension.
	Idem []IdemEntry
	// Replay is the restored paused replay.
	Replay *sched.Incremental
}

// RestoreCheckpoint decodes a checkpoint artifact. est may be nil; pass
// a shared estimator to reuse memoized dry runs.
func RestoreCheckpoint(data []byte, est *sched.Estimator) (*CheckpointState, error) {
	fail := func(format string, args ...any) (*CheckpointState, error) {
		return nil, fmt.Errorf("%w: %s", ErrBadCheckpoint, fmt.Sprintf(format, args...))
	}
	line, rest, ok := bytes.Cut(data, []byte{'\n'})
	if !ok || string(line) != ckptMagic {
		return fail("magic %q", string(line))
	}
	line, rest, ok = bytes.Cut(rest, []byte{'\n'})
	f := bytes.Fields(line)
	if !ok || len(f) != 3 || string(f[0]) != "seq" {
		return fail("seq line %q", string(line))
	}
	seq, err := strconv.Atoi(string(f[1]))
	if err != nil || seq < 0 {
		return fail("seq count %q", string(f[1]))
	}
	spacing, err := strconv.ParseInt(string(f[2]), 10, 64)
	if err != nil || spacing <= 0 {
		return fail("spacing %q", string(f[2]))
	}
	line, rest, ok = bytes.Cut(rest, []byte{'\n'})
	f = bytes.Fields(line)
	if !ok || len(f) != 2 || string(f[0]) != "sched" {
		return fail("sched line %q", string(line))
	}
	n, err := strconv.Atoi(string(f[1]))
	if err != nil || n < 0 || n > len(rest) {
		return fail("payload length %q over %d remaining bytes", string(f[1]), len(rest))
	}
	inc, err := sched.RestoreIncremental(rest[:n], est)
	if err != nil {
		return nil, fmt.Errorf("%w: payload: %v", ErrBadCheckpoint, err)
	}
	if inc.Len() != seq {
		return fail("payload holds %d jobs, frame declares %d", inc.Len(), seq)
	}
	// Trailer: optional idem lines, then the end marker.
	var idem []IdemEntry
	tail := rest[n:]
	for {
		line, next, ok := bytes.Cut(tail, []byte{'\n'})
		if !ok {
			return fail("missing end marker")
		}
		if string(line) == "end" {
			if len(next) != 0 {
				return fail("%d trailing bytes after end marker", len(next))
			}
			break
		}
		f := bytes.Fields(line)
		if len(f) != 3 || string(f[0]) != "idem" {
			return fail("trailer line %q", string(line))
		}
		idem = append(idem, IdemEntry{Key: string(f[1]), ID: string(f[2])})
		tail = next
	}
	return &CheckpointState{Seq: seq, SpacingMS: spacing, Idem: idem, Replay: inc}, nil
}

// Resume appends the request-log suffix beyond the checkpoint (entries
// Seq onward) and returns the drained result — byte-identical to a
// full replay of the whole log.
func (c *CheckpointState) Resume(suffix []sched.Job) (*sched.Result, error) {
	for _, j := range suffix {
		if _, err := c.Replay.Append(j); err != nil {
			return nil, err
		}
	}
	return c.Replay.Result()
}
