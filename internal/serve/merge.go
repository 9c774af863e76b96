package serve

// The merger turns per-shard sequencing batches into one total order.
// Shards claim dense blocks of global slot numbers; records enter a
// min-heap keyed by slot and flush into the request log exactly when
// they complete the dense prefix (top slot == log length). The order
// is a pure function of the slot numbers — never wall clock — so the
// merged log, and everything replayed from it, is deterministic given
// the slot assignment. With one shard the merge is the identity and
// the service behaves exactly like a single global sequencer.

import (
	"repro/internal/sched"
	"repro/internal/sim"
)

// record is one sequenced-but-not-yet-merged job.
type record struct {
	slot int64
	j    *job
}

// recordHeap is a hand-rolled min-heap by slot (no container/heap
// interface boxing on the sequencing hot path).
type recordHeap []record

func (h *recordHeap) push(r record) {
	*h = append(*h, r)
	a := *h
	i := len(a) - 1
	for i > 0 {
		p := (i - 1) / 2
		if a[p].slot <= a[i].slot {
			break
		}
		a[p], a[i] = a[i], a[p]
		i = p
	}
}

func (h *recordHeap) pop() record {
	a := *h
	top := a[0]
	n := len(a) - 1
	a[0] = a[n]
	a[n] = record{}
	*h = a[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && a[l].slot < a[m].slot {
			m = l
		}
		if r < n && a[r].slot < a[m].slot {
			m = r
		}
		if m == i {
			break
		}
		a[i], a[m] = a[m], a[i]
		i = m
	}
	return top
}

// mergeLocked hands sh's freshly popped batch (slots base..base+n-1)
// to the merger and flushes the dense prefix into the request log.
// Caller holds sh.mu and s.mu, in that order.
func (s *Service) mergeLocked(sh *shard, base int64) {
	for i, j := range sh.batch {
		s.reorder.push(record{slot: base + int64(i), j: j})
	}
	flushed := 0
	for len(s.reorder) > 0 && s.reorder[0].slot == int64(len(s.log)) {
		r := s.reorder.pop()
		j := r.j
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
		s.pending--
		s.byShard[j.shard].sequenced++
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
				"id", j.tj.ID, "seq", j.seq, "local_seq", j.local, "arrival_ms", j.tj.ArrivalMS)
		}
		flushed++
	}
	if flushed > 0 {
		if s.wal != nil && s.walErr == nil {
			// Group commit: one fsync covers the whole merge batch. Must
			// run before the broadcast so a waiter that wakes with seq
			// assigned is already durable.
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

// sequencedStatusLocked renders a sequenced job's status. Finalized
// jobs resolve O(1) off the resumable replay; everything still in
// motion comes from the (memoized) suffix replay. Caller holds s.mu.
func (s *Service) sequencedStatusLocked(j *job) *JobStatus {
	st := &JobStatus{ID: j.tj.ID, Tenant: j.tenant, Shard: j.shard, Seq: j.seq, ArrivalMS: j.tj.ArrivalMS}
	st.Durable = s.wal != nil && j.seq < s.durable
	var jr sched.JobResult
	done := false
	if s.incErr == nil {
		jr, done = s.inc.Finalized(j.seq)
	}
	if !done {
		var err error
		switch {
		case s.incErr != nil:
			err = s.incErr
		case s.resOK && s.resN == len(s.log):
			// A full result for this exact log is already memoized
			// (e.g. after a drain) — read it instead of replaying.
			if err = s.resErr; err == nil {
				jr = s.res.Jobs[j.seq]
			}
		default:
			// Suffix replay for just this job: no O(history) result
			// assembly on the query path.
			jr, err = s.inc.JobResult(j.seq)
		}
		if err != nil {
			st.Reason = err.Error()
			st.State = StateRejected
			return st
		}
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
