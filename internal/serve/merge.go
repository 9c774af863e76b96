package serve

// The merger appends each sequencing pass to the one request log, in
// pop order: shards in index order, round-robin within each. A job's
// log position is len(log), read in the critical section that appends
// it, so the log is always dense. Which submissions a pass finds queued
// depends on wall clock; the log records the order, and everything
// replayed from the log is deterministic. With one shard the pass is
// exactly a single global round-robin sequencer.

import (
	"repro/internal/sched"
	"repro/internal/sim"
)

// mergeLocked appends the freshly popped s.batch to the request log in
// pop order. Caller holds s.mu.
func (s *Service) mergeLocked() {
	for _, j := range s.batch {
		j.seq = len(s.log)
		j.tj.ArrivalMS = int64(j.seq) * s.cfg.SpacingMS
		s.log = append(s.log, j.tj)
		if s.wal != nil && s.walErr == nil {
			if err := s.wal.appendJob(j.tj, j.key); err != nil {
				// Latch the failure: no further acks until an operator
				// intervenes, since durability can no longer be promised.
				s.walErr = err
				s.lg.Error("wal append failed", "id", j.tj.ID, "err", err)
			}
		}
		s.queued[j.tenant]--
		if s.incErr == nil {
			if _, err := s.inc.Append(sched.JobFromTrace(j.tj)); err != nil {
				// Cannot happen while the watermark invariant holds;
				// latch it rather than corrupt state.
				s.incErr = err
				s.lg.Error("incremental replay append failed", "id", j.tj.ID, "err", err)
			}
		}
		if s.lgDbg {
			s.lg.Debug("job sequenced", "tenant", j.tenant, "shard", j.shard,
				"id", j.tj.ID, "seq", j.seq, "arrival_ms", j.tj.ArrivalMS)
		}
	}
	if s.wal != nil && s.walErr == nil {
		// Group commit: one fsync covers the whole pass, so a waiter
		// that wakes with seq assigned is already durable.
		d, err := s.wal.commit()
		s.durable = d
		if err != nil {
			s.walErr = err
			s.lg.Error("wal sync failed", "err", err)
		}
	}
	s.advanceWatermarkLocked()
	s.cond.Broadcast()
}

// advanceWatermarkLocked raises the resumable replay's watermark once
// SnapshotEvery new jobs have been merged since the last advance. The
// watermark is the log length in virtual time: every future job merges
// at arrival ≥ len(log)·spacing, so advancing there can never process
// an event a later append could perturb — the compaction-safety
// invariant.
func (s *Service) advanceWatermarkLocked() {
	if s.incErr != nil || len(s.log)-s.lastAdv < s.cfg.SnapshotEvery {
		return
	}
	w := sim.Time(int64(len(s.log))*s.cfg.SpacingMS) * sim.Time(sim.Millisecond)
	s.inc.AdvanceTo(w)
	s.lastAdv = len(s.log)
	s.lg.Info("replay watermark advanced", "seq", s.lastAdv,
		"watermark_ms", int64(s.inc.Watermark())/int64(sim.Millisecond),
		"finalized", s.inc.Finished()+s.inc.Rejected())
}

// resultLocked replays the current request log, memoized by log
// length. The replay resumes from the watermark (O(active suffix)); a
// latched incErr is returned instead. Drain's idempotence relies on
// the memo: repeated drains return the identical *Result pointer.
func (s *Service) resultLocked() (*sched.Result, error) {
	if s.incErr != nil {
		return nil, s.incErr
	}
	if s.resOK && s.resN == len(s.log) {
		return s.res, s.resErr
	}
	r, err := s.inc.Result()
	s.resN, s.res, s.resErr, s.resOK = len(s.log), r, err, true
	return r, err
}

// sequencedStatusLocked renders a sequenced job's status from one
// resolution call: JobResult answers a finalized job in O(1) and
// replays the active suffix for anything still in motion. Caller
// holds s.mu.
func (s *Service) sequencedStatusLocked(j *job) *JobStatus {
	if s.incErr != nil {
		return s.statusLocked(j, sched.JobResult{}, s.incErr)
	}
	jr, err := s.inc.JobResult(j.seq)
	return s.statusLocked(j, jr, err)
}

// statusLocked renders sequenced job j from its resolved result, or as
// rejected with err's text when the replay could not answer. Caller
// holds s.mu.
func (s *Service) statusLocked(j *job, jr sched.JobResult, err error) *JobStatus {
	st := &JobStatus{ID: j.tj.ID, Tenant: j.tenant, Shard: j.shard, Seq: j.seq, ArrivalMS: j.tj.ArrivalMS}
	st.Durable = s.wal != nil && j.seq < s.durable
	if err != nil {
		st.Reason = err.Error()
		st.State = StateRejected
		return st
	}
	st.Result = &jr
	if jr.Rejected {
		st.State = StateRejected
		st.Reason = jr.Reason
	} else {
		st.State = StateScheduled
	}
	return st
}
