package sched

import (
	"fmt"
	"log/slog"

	"repro/internal/sim"
)

// Incremental is a pausable replay of a growing job stream: the
// serving layer's snapshot/compaction substrate. Where Scheduler.Run
// replays a complete trace from scratch, an Incremental absorbs jobs
// as they are sequenced (Append), advances the discrete-event loop up
// to a watermark (AdvanceTo), answers O(1) status queries for jobs
// that are already finalized (Finalized, which JobResult tries
// first), and produces the exact batch-run Result on demand by
// draining a clone (Result) — the paused state itself is never
// disturbed.
//
// Equivalence to Scheduler.Run is structural, not best-effort: both
// drive the same exec through the same (time, class, sequence) event
// order, and processing the event prefix below the watermark cannot
// observe jobs that arrive at or after it (a pending arrival is
// invisible to the admission pass until its event fires). So
//
//	Run(log) == Incremental{Append(log[:k]); AdvanceTo(W); Append(log[k:])}.Result()
//
// for every split k and every watermark W ≤ min arrival of log[k:].
// Append enforces that precondition by rejecting arrivals below the
// watermark.
type Incremental struct {
	ex   *exec
	mark sim.Time
}

// NewIncremental returns an empty paused replay over the cluster. The
// cluster's fault plan is posted up front — fault events fire as the
// watermark passes them, exactly as in a batch run (snapshot restore
// bypasses this constructor; a restored queue already carries the
// undelivered fault events).
func NewIncremental(c Cluster, p Policy, est *Estimator) (*Incremental, error) {
	ex, err := newExec(c, p, est)
	if err != nil {
		return nil, err
	}
	ex.postFaults()
	return &Incremental{ex: ex}, nil
}

// SetLogger routes structured scheduling events (admissions,
// preemptions, rejections, spill decisions) to lg; nil discards them.
// Logging is observation only — it never affects the replay.
func (inc *Incremental) SetLogger(lg *slog.Logger) { inc.ex.setLogger(lg) }

// Append adds the next job of the stream and returns its index. The
// job's arrival must be at or after the watermark — events below it
// have already been processed, and virtual time only moves forward.
// Appending never advances the replay.
func (inc *Incremental) Append(j Job) (int, error) {
	if j.Arrival < inc.mark {
		return -1, fmt.Errorf("sched: job %s arrives at %d, before the replay watermark %d", j.ID, int64(j.Arrival), int64(inc.mark))
	}
	i, err := inc.ex.addJob(j)
	if err != nil {
		return -1, err
	}
	inc.ex.postArrival(i)
	return i, nil
}

// AdvanceTo processes every event strictly before t and raises the
// watermark to t. Advancing backwards is a no-op.
func (inc *Incremental) AdvanceTo(t sim.Time) {
	if t <= inc.mark {
		return
	}
	inc.ex.processUntil(t)
	inc.mark = t
}

// Watermark returns the time below which every event has been
// processed.
func (inc *Incremental) Watermark() sim.Time { return inc.mark }

// Len returns the number of appended jobs.
func (inc *Incremental) Len() int { return len(inc.ex.states) }

// Finished and Rejected count finalized jobs, maintained as running
// aggregates (O(1), independent of history length).
func (inc *Incremental) Finished() int { return inc.ex.finCount }
func (inc *Incremental) Rejected() int { return inc.ex.rejCount }

// Finalized returns job i's outcome if it can no longer change —
// rejected up front, or every iteration completed below the
// watermark. It is O(1) and allocates nothing for a single-device
// job. JobResult tries it first, which makes it the serving layer's
// status fast path.
func (inc *Incremental) Finalized(i int) (JobResult, bool) {
	if i < 0 || i >= len(inc.ex.states) {
		return JobResult{}, false
	}
	js := inc.ex.states[i]
	if js.rejReason == "" && (js.remaining > 0 || !js.started) {
		return JobResult{}, false
	}
	return inc.ex.jobResult(i), true
}

// JobResult drains a clone to completion and returns job i's outcome
// alone. Unlike Result it never assembles the full per-job slice, so a
// single status query costs the active-suffix replay plus O(1)
// rendering — not an O(history) result construction.
func (inc *Incremental) JobResult(i int) (JobResult, error) {
	if i < 0 || i >= len(inc.ex.states) {
		return JobResult{}, fmt.Errorf("sched: job index %d out of range (have %d)", i, len(inc.ex.states))
	}
	if jr, ok := inc.Finalized(i); ok {
		return jr, nil
	}
	c := inc.ex.clone()
	c.processUntil(-1)
	if c.runErr != nil {
		return JobResult{}, c.runErr
	}
	if js := c.states[i]; js.rejReason == "" && js.remaining > 0 {
		return JobResult{}, fmt.Errorf("sched: job %s stranded with %d iterations left (scheduler deadlock)", js.ID, js.remaining)
	}
	return c.jobResult(i), nil
}

// Result drains a clone to completion and assembles the full
// batch-run Result; the paused replay is untouched. The cost is
// O(active suffix), not O(history): everything below the watermark
// was already processed.
func (inc *Incremental) Result() (*Result, error) {
	c := inc.ex.clone()
	c.processUntil(-1)
	return c.result()
}
