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
// The artifact is a stream of workload frames, one record each:
//
//	# snckpt 2 seq <merged jobs> spacing <ms> idem <k>
//	# idem <key> <id>                  (k records)
//	<sched.AppendSnapshot records>     (JSON, to the end of the data)
//
// The idem records persist the idempotency bindings of sequenced jobs,
// so a service restored from a checkpoint keeps deduplicating retries.
// Every frame is checksummed, so a torn or bit-flipped checkpoint
// fails with ErrBadCheckpoint instead of restoring a wrong replay; the
// decoder validates every field and never panics on malformed input
// (fuzzed in shard_test.go).

import (
	"errors"
	"fmt"
	"strings"

	"repro/internal/sched"
	"repro/internal/workload"
)

const ckptMagic = "snckpt 2"

// ErrBadCheckpoint is the sentinel under every RestoreCheckpoint
// decode failure; errors.Is matches it through the per-field context.
var ErrBadCheckpoint = errors.New("serve: bad checkpoint")

// Checkpoint serializes the service's current resumable replay. The
// artifact covers every job sequenced so far (processed up to the
// watermark, pending above it); appending later log entries to the
// restored replay reproduces the full-log result exactly. A record
// too large for one frame is an error.
func (s *Service) Checkpoint() ([]byte, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.incErr != nil {
		return nil, s.incErr
	}
	// Idempotency bindings of sequenced jobs, in insertion order, so a
	// restore rebuilds the same bounded index.
	var idem strings.Builder
	k := 0
	for _, key := range s.idemOrder {
		if j := s.idem[key]; j != nil && j.seq >= 0 {
			fmt.Fprintf(&idem, "# idem %s %s\n", key, j.tj.ID)
			k++
		}
	}
	head := fmt.Sprintf("# %s seq %d spacing %d idem %d\n%s", ckptMagic, len(s.log), s.cfg.SpacingMS, k, idem.String())
	b, err := workload.AppendLines(nil, []byte(head))
	if err == nil {
		b, err = sched.AppendSnapshot(b, s.inc)
	}
	if err != nil {
		return nil, fmt.Errorf("serve: checkpoint: %w", err)
	}
	s.lg.Info("checkpoint written", "seq", len(s.log), "bytes", len(b))
	return b, nil
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
	// order.
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
	payload, rest, err := workload.ReadFrame(data)
	if err != nil {
		return fail("header: %v", err)
	}
	v, err := parseHeader(string(payload), ckptMagic, "seq", "spacing", "idem")
	if err != nil {
		return fail("%v", err)
	}
	seq, spacing := int(v[0]), v[1]
	var idem []IdemEntry
	for i := int64(0); i < v[2]; i++ {
		if payload, rest, err = workload.ReadFrame(rest); err != nil {
			return fail("idem record %d: %v", i, err)
		}
		// "# idem <key> <id>"
		f := strings.Fields(string(payload))
		if len(f) != 4 || f[0] != "#" || f[1] != "idem" {
			return fail("idem record %q", payload)
		}
		idem = append(idem, IdemEntry{Key: f[2], ID: f[3]})
	}
	inc, err := sched.RestoreIncremental(rest, est)
	if err != nil {
		return fail("snapshot: %v", err)
	}
	if inc.Len() != seq {
		return fail("snapshot holds %d jobs, header declares %d", inc.Len(), seq)
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
