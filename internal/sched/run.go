package sched

import (
	"context"
	"fmt"
	"log/slog"
	"slices"
	"sort"

	"repro/internal/core"
	"repro/internal/dataparallel"
	"repro/internal/hw"
	"repro/internal/memplan"
	"repro/internal/sim"
	"repro/internal/workload"
)

// The discrete-event core of the scheduler, shared verbatim by the
// batch path (Scheduler.Run) and the resumable path (Incremental): one
// code path means a paused-and-resumed replay cannot diverge from a
// from-scratch replay.
//
// Events are plain data, not closures, for two reasons. First, a
// paused execution can be deep-copied (exec.clone) and
// serialized (AppendSnapshot) only if its in-flight events are
// re-materializable; a closure capturing the original run's structs is
// neither. Second, events carry an explicit (time, class, sequence)
// key so the processing order is a total order over data: arrivals
// sort before completions at the same virtual instant, matching the
// batch scheduler's historical behavior (it posted every arrival
// before draining, so at equal times an arrival's insertion sequence
// was always lower). That tie rule is what makes incremental replay
// provably identical to batch replay: both process the same event
// multiset in the same key order, so they produce the same schedule
// byte for byte.

// Event classes: arrivals order before iteration completions, and
// both order before fault events, at the same virtual time (see the
// package comment above and fault.go — a job checkpoints at an
// iteration boundary that coincides with a failure, and an arrival
// admitted onto a device failing that instant is displaced, not lost).
const (
	classArrival = 0
	classDone    = 1
	classFault   = 2
)

// event is one schedulable decision point.
type event struct {
	at    sim.Time
	class uint8
	seq   int64 // per-class monotone sequence, the final tie-break
	job   int   // index into exec.states; the recover flag (classFault)
	dev   int   // device index (classDone and classFault)
}

// before is the total event order: (time, class, sequence).
func (a event) before(b event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	if a.class != b.class {
		return a.class < b.class
	}
	return a.seq < b.seq
}

// eventQueue is a hand-rolled binary min-heap over events. It avoids
// container/heap so pushes do not box through interface{} — the
// dispatch path runs once per training iteration of every job.
type eventQueue []event

func (q *eventQueue) push(ev event) {
	*q = append(*q, ev)
	h := *q
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !h[i].before(h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
}

func (q *eventQueue) pop() event {
	h := *q
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	*q = h[:n]
	h = h[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		m := i
		if l < n && h[l].before(h[m]) {
			m = l
		}
		if r < n && h[r].before(h[m]) {
			m = r
		}
		if m == i {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	return top
}

// jobState is the scheduler's mutable view of one job.
type jobState struct {
	Job
	seq int // input order, the deterministic tie-breaker
	// rejReason is non-empty when admission rejected the job up front.
	rejReason string
	// est is the admission estimate: for dynamic jobs, the worst case
	// over the schedule's distinct shapes.
	est core.Estimate
	// iterTimes holds the per-schedule-position iteration durations
	// (one entry for static jobs). Immutable after creation, so clones
	// share it.
	iterTimes []sim.Duration
	remaining int
	device    int
	// gang lists the devices of the current (or last) placement,
	// ascending; admit assigns a fresh slice, so clones can share the
	// backing array. Always non-empty while the job is resident; a
	// single-device job's gang is just {device}.
	gang []int
	// gangAR is the total bucketed all-reduce cost per iteration at
	// the current placement (zero for single-device jobs); the exposed
	// share is derived per iteration, since dynamic-batch iterations
	// have different overlap windows.
	gangAR   sim.Duration
	started  bool
	start    sim.Time
	finish   sim.Time
	preempts int
	// marked is set when a preemptive policy has chosen this job as a
	// victim; it vacates at its next iteration boundary.
	marked bool
	// running is set while an iteration is in flight on the engine.
	running bool
	// liveDone is the sequence of the in-flight iteration's completion
	// event, -1 when none. A device failure aborts the iteration by
	// resetting it, so the already-queued completion is recognized as
	// stale when it fires.
	liveDone int64
	// Fault-recovery counters: checkpoint restores suffered, elastic
	// gang shrinks taken, and iterations lost in flight (each re-run
	// from the last iteration boundary).
	restores  int
	shrinks   int
	lostIters int
	// demand is the device-planner demand under CrossJob admission
	// (zero otherwise). Immutable after creation; clones share the
	// tensor slice.
	demand memplan.Demand
}

// device is the scheduler's mutable view of one GPU. The serial
// compute engine is modeled inline (freeAt/busy) rather than through
// sim.Engine so a paused execution can be cloned and serialized; the
// timestamp arithmetic is identical (a task starts at
// max(issue, freeAt) and runs for its duration).
type device struct {
	freeAt   sim.Time
	busy     sim.Duration
	used     int64
	peak     int64
	resident []*jobState
	rr       int // round-robin cursor into resident
	inflight bool
	iters    int

	// maxRes is the co-residency high-water mark; spillPeak the
	// host-spill-pool one (CrossJob only).
	maxRes    int
	spillPeak int64

	// lower[k] is the bytes this device's residents of priority below
	// exec.prio[k] hold: the preemption summary of isolated preemptive
	// admission (nil otherwise). A head of priority prio[k] would have
	// cap − used + lower[k] free here with every strictly
	// lower-priority resident evicted. hold keeps it in step with the
	// residents; clone copies it and snapshot restore rebuilds it
	// (rebuildSummary).
	lower []int64

	// Fault state: failed devices are skipped by every placement and
	// dispatch path; downSince stamps the current outage, down
	// accumulates completed ones, fails counts failure events.
	failed    bool
	downSince sim.Time
	down      sim.Duration
	fails     int

	// memIntegral accumulates used×dt for the memory-utilization
	// metric; lastT is the time of its last update.
	memIntegral float64
	lastT       sim.Time
}

func (d *device) setUsed(now sim.Time, delta int64) {
	d.memIntegral += float64(d.used) * float64(now-d.lastT)
	d.lastT = now
	d.used += delta
	if d.used > d.peak {
		d.peak = d.used
	}
}

// exec is one in-progress replay of a job stream over a cluster: the
// states, devices, pending queue and event queue of the discrete-event
// loop, advanced by processUntil.
type exec struct {
	cluster Cluster
	policy  Policy
	cap     int64
	est     *Estimator
	// topo is the normalized interconnect topology; overlap selects
	// the gang communication model (see Cluster).
	topo    hw.Topology
	overlap bool

	// crossjob enables the interference-aware device planners (one per
	// device, nil otherwise); spillCap is the per-device host spill
	// pool each planner owns. Planner state is a pure function of the
	// member set, which is what lets clone and snapshot-restore rebuild
	// planners by re-admitting residents (rebuildDerived).
	crossjob bool
	spillCap int64
	planners []*memplan.Planner

	// free is the free-capacity summary of isolated (non-CrossJob)
	// admission: cap − used of every healthy device, ascending. It
	// answers "do k devices each fit p bytes?" without probing a device
	// (gangFits). hold, failDevice and recoverDevice keep it in step
	// with devs; clone and snapshot restore rebuild it (rebuildDerived).
	free []int64

	// prio lists the distinct priorities of the jobs added so far,
	// ascending: the classes of the preemption summary (device.lower),
	// kept only under isolated preemptive admission. addJob adds a class
	// for a new priority.
	prio []int

	// lg receives structured scheduling decisions; lgInfo and lgDbg
	// gate the argument building of the Info and Debug sites (checked
	// once, the serve-layer idiom).
	lg     *slog.Logger
	lgInfo bool
	lgDbg  bool

	states  []*jobState
	devs    []*device
	pending []*jobState
	q       eventQueue
	doneSeq int64
	now     sim.Time // time of the last processed event
	runErr  error

	// Running aggregates over finalized jobs, so a summary of a long
	// history costs O(active), not O(history).
	finCount int
	rejCount int
	sumJCT   sim.Duration
	sumWait  sim.Duration
}

func newExec(c Cluster, p Policy, est *Estimator) (*exec, error) {
	if err := validate(c, p); err != nil {
		return nil, err
	}
	if est == nil {
		est = NewEstimator()
	}
	e := &exec{cluster: c, policy: p, cap: c.Capacity(), est: est,
		topo: c.Topology.WithDefaults(), overlap: c.Overlap}
	if len(e.cluster.Faults.Events) == 0 {
		// Normalize an empty plan to nil so option-built and
		// literal-built clusters compare equal in reported results.
		e.cluster.Faults.Events = nil
	}
	e.devs = make([]*device, c.Devices)
	for i := range e.devs {
		e.devs[i] = &device{}
	}
	if c.CrossJob {
		e.crossjob = true
		e.spillCap = c.HostSpillBytes
		if e.spillCap <= 0 {
			e.spillCap = defaultSpillBytes
		}
		// Reflect the resolved pool size in the reported cluster.
		e.cluster.HostSpillBytes = e.spillCap
	}
	if err := e.rebuildDerived(); err != nil {
		return nil, err
	}
	e.setLogger(nil)
	return e, nil
}

// defaultSpillBytes is the per-device host spill pool under CrossJob
// when the cluster does not size it; spillLink prices the floor swaps
// (the pinned PCIe path core's host offloads default to).
const defaultSpillBytes = 64 * hw.GiB

var spillLink = hw.PCIePinned

// setLogger installs the structured-event sink (nil discards).
func (e *exec) setLogger(lg *slog.Logger) {
	if lg == nil {
		lg = slog.New(discardHandler{})
	}
	e.lg = lg
	e.lgInfo = lg.Enabled(context.Background(), slog.LevelInfo)
	e.lgDbg = lg.Enabled(context.Background(), slog.LevelDebug)
}

// discardHandler is enabled at no level, so a discarded record is
// never built, let alone formatted.
type discardHandler struct{}

func (discardHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (discardHandler) Handle(context.Context, slog.Record) error { return nil }
func (h discardHandler) WithAttrs([]slog.Attr) slog.Handler      { return h }
func (h discardHandler) WithGroup(string) slog.Handler           { return h }

// plannerID is the job's member key in device planners: the zero-padded
// trace index, so lexicographic member order (the planner's spill
// tie-break) is exactly trace order.
func plannerID(js *jobState) string { return fmt.Sprintf("%08d", js.seq) }

// coResidents renders a device's resident job IDs for logging.
func coResidents(d *device) []string {
	out := make([]string, 0, len(d.resident))
	for _, r := range d.resident {
		out = append(out, r.ID)
	}
	return out
}

// addJob estimates and appends one job, deciding up-front rejection.
// It does not post the arrival event; callers do (batch posts in input
// order, incremental as records merge).
func (e *exec) addJob(j Job) (int, error) {
	i := len(e.states)
	if j.Iterations <= 0 {
		j.Iterations = 1
	}
	if j.GPUs <= 0 {
		j.GPUs = 1
	}
	if j.ID == "" {
		j.ID = fmt.Sprintf("job%d", i)
	}
	if j.GPUs > e.cluster.Devices {
		// A gang wider than the cluster can never be placed; reject up
		// front like a single job that cannot fit an idle device.
		e.addState(&jobState{Job: j, seq: i, liveDone: -1,
			rejReason: fmt.Sprintf("gang needs %d devices, cluster has %d", j.GPUs, e.cluster.Devices)})
		e.rejCount++
		return i, nil
	}
	batches := []int{j.Batch}
	if len(j.BatchSchedule) > 0 {
		sched := workload.Schedule(j.BatchSchedule)
		if err := sched.Validate(); err != nil {
			return -1, fmt.Errorf("sched: job %s: %w", j.ID, err)
		}
		batches = sched.Distinct()
	}
	perBatch := make(map[int]core.Estimate, len(batches))
	var worst core.Estimate
	worstBatch := 0
	rejReason := ""
	for _, b := range batches {
		est, err := e.est.Estimate(j.Network, b, j.Manager, e.cluster.Device)
		if err != nil {
			if isOOM(err) {
				rejReason = fmt.Sprintf("batch %d exceeds device memory even alone", b)
				break
			}
			return -1, fmt.Errorf("sched: job %s: %w", j.ID, err)
		}
		perBatch[b] = est
		if est.PeakBytes > worst.PeakBytes || worstBatch == 0 {
			worst = est
			worstBatch = b
		}
	}
	if rejReason != "" {
		// Rejected before any shape estimated cleanly: the recorded
		// Estimate stays zero, exactly as the batch scheduler always
		// reported it.
		e.addState(&jobState{Job: j, seq: i, liveDone: -1, rejReason: rejReason})
		e.rejCount++
		if e.lgInfo {
			e.lg.Info("job rejected", "job", j.ID, "reason", rejReason)
		}
		return i, nil
	}
	if worst.PeakBytes > e.cap {
		rejReason = fmt.Sprintf("predicted worst-case peak %d exceeds device capacity %d", worst.PeakBytes, e.cap)
	}
	iterTimes := []sim.Duration{worst.IterTime}
	if len(j.BatchSchedule) > 0 {
		iterTimes = make([]sim.Duration, len(j.BatchSchedule))
		for k, b := range j.BatchSchedule {
			iterTimes[k] = perBatch[b].IterTime
		}
	}
	js := &jobState{Job: j, seq: i, rejReason: rejReason, est: worst, iterTimes: iterTimes, remaining: j.Iterations, device: -1, liveDone: -1}
	if rejReason != "" {
		js.remaining = 0
		e.rejCount++
		if e.lgInfo {
			e.lg.Info("job rejected", "job", j.ID, "reason", rejReason,
				"peak_bytes", worst.PeakBytes, "capacity", e.cap)
		}
	} else if e.crossjob {
		// The worst shape's tensor-granularity demand; the planner sees
		// the same worst case admission reserves.
		tds, err := e.est.TensorDemands(j.Network, worstBatch)
		if err != nil {
			return -1, fmt.Errorf("sched: job %s: %w", j.ID, err)
		}
		js.demand = buildDemand(js, tds)
	}
	e.addState(js)
	return i, nil
}

// addState appends a job's state and gives its priority a class in
// the preemption summary.
func (e *exec) addState(js *jobState) {
	e.states = append(e.states, js)
	e.addClass(js.Priority)
}

// buildDemand assembles the device-planner demand from the admission
// estimate and the extracted tensor shapes, clamped to the functional
// budget (peak minus floor) — shape sizes are program-declared while
// the peak is a measured high-water mark, and the planner refuses
// demands whose shareable bytes exceed the job's running footprint. An
// estimate without a floor (recorded before the field existed) yields
// floor == peak: worst-case-in-isolation, never an optimistic plan.
func buildDemand(js *jobState, tds []memplan.TensorDemand) memplan.Demand {
	d := memplan.Demand{
		Job:        plannerID(js),
		PeakBytes:  js.est.PeakBytes,
		FloorBytes: js.est.FloorBytes,
	}
	if d.FloorBytes <= 0 || d.FloorBytes > d.PeakBytes {
		d.FloorBytes = d.PeakBytes
	}
	budget := d.PeakBytes - d.FloorBytes
	for _, td := range tds {
		if td.Bytes > budget {
			continue
		}
		d.Tensors = append(d.Tensors, td)
		budget -= td.Bytes
	}
	return d
}

// postArrival schedules job i's arrival event (no-op for rejected
// jobs, which never enter the cluster). The arrival sequence is the
// job index itself: input order, the same tie-break the batch
// scheduler has always used for same-instant arrivals.
func (e *exec) postArrival(i int) {
	js := e.states[i]
	if js.rejReason != "" {
		return
	}
	e.q.push(event{at: js.Arrival, class: classArrival, seq: int64(i), job: i})
}

// processUntil runs events with time strictly below limit in
// (time, class, seq) order; a negative limit drains everything.
func (e *exec) processUntil(limit sim.Time) {
	for len(e.q) > 0 && (limit < 0 || e.q[0].at < limit) {
		e.step(e.q.pop())
	}
}

// step processes one event. Every event leaves the admission pass at
// rest (atRest): an event that changes what the pass reads runs it.
func (e *exec) step(ev event) {
	e.now = ev.at
	switch ev.class {
	case classArrival:
		e.enqueue(e.states[ev.job])
		e.schedule(ev.at)
	case classDone:
		e.iterDone(e.states[ev.job], ev.dev, ev.at, ev.seq)
	case classFault:
		if ev.job != 0 {
			e.recoverDevice(ev.dev, ev.at)
		} else {
			e.failDevice(ev.dev, ev.at)
		}
	}
}

func (e *exec) fail(err error) {
	if e.runErr == nil {
		e.runErr = err
	}
}

// enqueue inserts js into the pending queue at its policy position.
// The queue is always in policy order: less is total (it ties on
// trace order) and a job's key cannot change while it waits, so
// insertion yields exactly the order a re-sort would.
func (e *exec) enqueue(js *jobState) {
	i := sort.Search(len(e.pending), func(k int) bool { return e.policy.less(js, e.pending[k]) })
	e.pending = append(e.pending, nil)
	copy(e.pending[i+1:], e.pending[i:])
	e.pending[i] = js
}

func (e *exec) schedule(now sim.Time) {
	e.policy.schedule(e, now)
}

// atRest reports whether the admission pass has nothing left to do. It
// runs the per-boundary pass the event loop no longer runs — re-sort
// the queue, then schedule — on a clone, so the replay is untouched,
// and reports true only if the queue was already in policy order and
// the pass admitted no job and marked or vacated no victim. The event
// loop keeps this true after every event; snapshot restore checks it,
// since a snapshot is the one input that could start the loop from a
// state the pass has not settled.
func (e *exec) atRest() bool {
	q := e.pending
	if len(q) == 0 {
		return true // the pass has nothing to admit or preempt for
	}
	c := e.clone()
	c.setLogger(nil)
	sort.SliceStable(c.pending, func(i, j int) bool { return c.policy.less(c.pending[i], c.pending[j]) })
	c.schedule(c.now)
	if len(c.pending) != len(q) {
		return false
	}
	for i, js := range c.pending {
		if js.seq != q[i].seq {
			return false
		}
	}
	for di, d := range c.devs {
		was := e.devs[di].resident
		if len(d.resident) != len(was) {
			return false
		}
		for k, r := range d.resident {
			if r.seq != was[k].seq || r.marked != was[k].marked {
				return false
			}
		}
	}
	return true
}

// headroom is the fit context every placement decision routes through:
// the capacity left on device di after admitting js, and whether it
// fits at all. Isolated mode is the historical arithmetic (free minus
// solo peak); CrossJob asks the device planner, whose requirement
// charges the worst case over the running tenant plus parked floors —
// not the sum of solo peaks.
func (e *exec) headroom(js *jobState, di int) (int64, bool) {
	if e.devs[di].failed {
		return 0, false
	}
	if e.crossjob {
		return e.planners[di].Headroom(js.demand)
	}
	left := e.cap - e.devs[di].used - js.est.PeakBytes
	if left < 0 {
		return 0, false
	}
	return left, true
}

// gangFits reports whether k healthy devices each have at least p
// bytes free — in isolated mode exactly the question "would k devices
// pass headroom for a job of per-device peak p?", answered from the
// free-capacity summary without probing a device.
func (e *exec) gangFits(k int, p int64) bool {
	n := len(e.free)
	return n >= k && e.free[n-k] >= p
}

// hold changes isolated device di's reservation by delta at now on
// behalf of resident js: its peak when it is admitted, minus its peak
// when it leaves. It is the one place isolated reservations move, so
// the summaries follow them: a healthy device's free capacity moves
// within the free-capacity summary (a failed device is out of it —
// failDevice unlisted it — and stays out), and js's bytes count as
// lower-priority bytes in every class above its priority.
func (e *exec) hold(di int, js *jobState, now sim.Time, delta int64) {
	d := e.devs[di]
	free := e.cap - d.used
	d.setUsed(now, delta)
	if !d.failed {
		resort(e.free, free, free-delta)
	}
	for k := len(e.prio) - 1; k >= 0 && e.prio[k] > js.Priority; k-- {
		d.lower[k] += delta
	}
}

// listFree enters healthy device di's free capacity into the summary;
// unlistFree removes it. Both are no-ops under CrossJob, whose fit
// question the device planners answer.
func (e *exec) listFree(di int) {
	if e.crossjob {
		return
	}
	v := e.cap - e.devs[di].used
	i, _ := slices.BinarySearch(e.free, v)
	e.free = slices.Insert(e.free, i, v)
}

func (e *exec) unlistFree(di int) {
	if e.crossjob {
		return
	}
	i, _ := slices.BinarySearch(e.free, e.cap-e.devs[di].used)
	e.free = slices.Delete(e.free, i, i+1)
}

// resort moves one entry of the ascending list s from old to new with
// a single shift of the entries between its two positions.
func resort(s []int64, old, new int64) {
	i, _ := slices.BinarySearch(s, old)
	switch {
	case new > old:
		j, _ := slices.BinarySearch(s[i:], new)
		j += i
		copy(s[i:j-1], s[i+1:j])
		s[j-1] = new
	case new < old:
		j, _ := slices.BinarySearch(s[:i], new)
		copy(s[j+1:i+1], s[j:i])
		s[j] = new
	}
}

// rebuildSummary reconstructs the preemption summary from the jobs'
// priorities and the devices' residents, for snapshot restore. It
// reads every job, so clone copies the summary instead: a clone costs
// O(active), which the serving layer's status queries rely on.
func (e *exec) rebuildSummary() {
	e.prio = nil
	for _, d := range e.devs {
		d.lower = nil
	}
	for _, js := range e.states {
		e.addClass(js.Priority)
	}
}

// addClass gives priority p a class in the preemption summary, which
// only isolated preemptive admission keeps: every device's bytes held
// by residents below p.
func (e *exec) addClass(p int) {
	if e.crossjob || !e.policy.Preemptive {
		return
	}
	k, ok := slices.BinarySearch(e.prio, p)
	if ok {
		return
	}
	e.prio = slices.Insert(e.prio, k, p)
	for _, d := range e.devs {
		var lower int64
		for _, r := range d.resident {
			if r.Priority < p {
				lower += r.est.PeakBytes
			}
		}
		d.lower = slices.Insert(d.lower, k, lower)
	}
}

// fitsWithout is the CrossJob preemption probe: would js fit device
// di's planner with every resident exclude names vacated? Isolated
// preemption reads the preemption summary instead.
func (e *exec) fitsWithout(js *jobState, di int, exclude func(*jobState) bool) bool {
	d := e.devs[di]
	if d.failed {
		return false
	}
	_, ok := e.planners[di].HeadroomWithout(func(member string) bool {
		for _, r := range d.resident {
			if r.demand.Job == member {
				return exclude(r)
			}
		}
		return false
	}, js.demand)
	return ok
}

// admit reserves the job's per-device peak on every gang member —
// all-or-nothing, the gang admission rule — prices the gang's
// all-reduce for this placement, and dispatches the first engine if
// idle.
func (e *exec) admit(js *jobState, gang []int, now sim.Time) {
	for _, di := range gang {
		d := e.devs[di]
		if e.crossjob {
			// The device reserves the planner's requirement delta: the
			// member set is replanned with js included, and used tracks
			// the new requirement exactly. Admit fails only when the
			// policy admitted without probing headroom first — that is
			// a scheduler bug, surfaced as a run error, never an OOM.
			pl := e.planners[di]
			before := pl.Requirement()
			if _, err := pl.Admit(js.demand); err != nil {
				e.fail(fmt.Errorf("sched: %w", err))
			}
			d.setUsed(now, pl.Requirement()-before)
			if sp := pl.SpillUsed(); sp > d.spillPeak {
				d.spillPeak = sp
			}
		} else {
			e.hold(di, js, now, js.est.PeakBytes)
		}
		if d.used > e.cap {
			e.fail(fmt.Errorf("sched: admission overflow on gpu%d: %d > capacity %d (job %s)", di, d.used, e.cap, js.ID))
		}
		d.resident = append(d.resident, js)
		if len(d.resident) > d.maxRes {
			d.maxRes = len(d.resident)
		}
	}
	js.gang = gang
	js.device = gang[0]
	// The collective is priced once per placement: a bucketed ring
	// all-reduce of the replica gradient across the gang, set by the
	// slowest pairwise tier (a preempted gang re-priced on re-admission
	// may land on a different tier, and an elastically shrunk gang is
	// re-priced by this same rule over its surviving subset).
	js.gangAR = dataparallel.PriceGang(e.topo, gang, js.est.GradientBytes, dataparallel.DefaultBuckets)
	if !js.started {
		js.started = true
		js.start = now
	}
	if e.lgDbg {
		attrs := []any{"job", js.ID, "device", gang[0], "gang", gang, "t", int64(now),
			"peak_bytes", js.est.PeakBytes, "cotenants", coResidents(e.devs[gang[0]])}
		if e.crossjob {
			pl := e.planners[gang[0]]
			g, _ := pl.Grant(js.demand.Job)
			attrs = append(attrs, "requirement", pl.Requirement(), "spill_used", pl.SpillUsed(),
				"shared_saved", pl.SharedSavedBytes())
			if g.SpilledBytes > 0 {
				e.lg.Debug("floor spilled", "job", js.ID, "device", gang[0],
					"spilled_bytes", g.SpilledBytes, "swap_penalty", int64(g.SwapPenalty))
			}
		}
		e.lg.Debug("job admitted", attrs...)
	}
	e.dispatch(e.devs[gang[0]], gang[0], now)
}

// vacate releases the job's reservation on every gang member and drops
// it from their resident sets — a gang always leaves atomically (an
// elastic shrink, which releases one member only, goes through
// vacateOne directly). The gang list is retained for reporting; the
// next admit overwrites it.
func (e *exec) vacate(js *jobState, now sim.Time) {
	for _, di := range js.gang {
		e.vacateOne(js, di, now)
	}
	js.gangAR = 0
}

// vacateOne drops the job from device di's resident set and releases
// its reservation there, re-planning the device's demand set under
// CrossJob.
func (e *exec) vacateOne(js *jobState, di int, now sim.Time) {
	d := e.devs[di]
	for i, r := range d.resident {
		if r == js {
			d.resident = append(d.resident[:i], d.resident[i+1:]...)
			if d.rr > i {
				d.rr--
			}
			break
		}
	}
	if len(d.resident) > 0 {
		d.rr %= len(d.resident)
	} else {
		d.rr = 0
	}
	if e.crossjob {
		pl := e.planners[di]
		before := pl.Requirement()
		if err := pl.Release(js.demand.Job); err != nil {
			e.fail(fmt.Errorf("sched: %w", err))
		}
		d.setUsed(now, pl.Requirement()-before)
	} else {
		e.hold(di, js, now, -js.est.PeakBytes)
	}
}

// dispatch submits the next resident iteration round-robin when the
// engine is idle. A gang iteration needs every member engine idle at
// once; a gang whose partners are busy is skipped this round (its
// members' completions retry it), so single-device work keeps flowing
// around a waiting gang.
func (e *exec) dispatch(d *device, di int, now sim.Time) {
	if d.failed || d.inflight || len(d.resident) == 0 {
		return
	}
	n := len(d.resident)
	for k := 0; k < n; k++ {
		js := d.resident[(d.rr+k)%n]
		if js.marked || js.remaining <= 0 || js.running {
			continue
		}
		if len(js.gang) > 1 {
			busy := false
			for _, g := range js.gang {
				if e.devs[g].inflight {
					busy = true
					break
				}
			}
			if busy {
				continue
			}
		}
		d.rr = (d.rr + k + 1) % n
		js.running = true
		start := now
		for _, g := range js.gang {
			if e.devs[g].freeAt > start {
				start = e.devs[g].freeAt
			}
		}
		dur := e.iterDur(js)
		end := start + sim.Time(dur)
		for _, g := range js.gang {
			gd := e.devs[g]
			gd.inflight = true
			gd.freeAt = end
			gd.busy += dur
		}
		e.doneSeq++
		js.liveDone = e.doneSeq
		e.q.push(event{at: end, class: classDone, seq: e.doneSeq, job: js.seq, dev: di})
		return
	}
}

// iterDone handles one iteration-completion event; for a gang it is
// the synchronous barrier at which all member engines free together.
// A completion whose iteration was aborted by a device failure is
// stale — its sequence no longer matches liveDone (the engines were
// already rewound at the failure instant) — and is dropped.
//
// The admission pass runs only when the boundary vacates the job
// (finished, or marked for preemption). Any other boundary changes
// nothing the pass reads — the queue, reservations, residents and
// preemption marks — so the pass, already at rest, would admit,
// mark and vacate nothing (DESIGN.md §3).
func (e *exec) iterDone(js *jobState, di int, now sim.Time, seq int64) {
	if !js.running || seq != js.liveDone {
		return
	}
	js.liveDone = -1
	gang := js.gang
	for _, g := range gang {
		gd := e.devs[g]
		gd.inflight = false
		gd.iters++
	}
	js.running = false
	js.remaining--
	switch {
	case js.remaining == 0:
		js.finish = now
		e.finCount++
		e.sumJCT += sim.Duration(js.finish - js.Arrival)
		e.sumWait += sim.Duration(js.start - js.Arrival)
		e.vacate(js, now)
		e.schedule(now)
	case js.marked:
		// Preempted at the iteration boundary: keep the completed
		// iterations, release the whole gang's reservations, re-queue.
		js.marked = false
		js.preempts++
		e.vacate(js, now)
		js.device = -1
		e.enqueue(js)
		e.schedule(now)
	}
	for _, g := range gang {
		e.dispatch(e.devs[g], g, now)
	}
}

// iterDur returns the duration of the job's next iteration: completed
// iterations index the batch schedule, cycling past its end (static
// jobs have a single entry), plus the exposed share of the gang's
// all-reduce for the current placement.
func (e *exec) iterDur(js *jobState) sim.Duration {
	done := js.Iterations - js.remaining
	base := js.iterTimes[done%len(js.iterTimes)]
	if js.gangAR > 0 {
		base += dataparallel.ExposedAllReduce(js.gangAR, base, e.overlap)
	}
	if e.crossjob {
		// A spilled tenant swaps its floor in before the iteration and
		// back out after — the AccUDNN-style price of admission beyond
		// resident capacity. A gang pays its slowest member's swap.
		var pen sim.Duration
		for _, g := range js.gang {
			if p := e.planners[g].SwapPenalty(js.demand.Job); p > pen {
				pen = p
			}
		}
		base += pen
	}
	return base
}

// clone deep-copies the execution so the copy can be drained to
// completion without disturbing the paused original. Finished and
// rejected job states are immutable — the event loop never touches
// them again — so the clone shares them and deep-copies only the
// states the drain can still mutate (pending, resident, in-flight).
func (e *exec) clone() *exec {
	c := &exec{
		cluster: e.cluster, policy: e.policy, cap: e.cap, est: e.est,
		topo: e.topo, overlap: e.overlap,
		crossjob: e.crossjob, spillCap: e.spillCap, lg: e.lg, lgInfo: e.lgInfo, lgDbg: e.lgDbg,
		doneSeq: e.doneSeq, now: e.now, runErr: e.runErr,
		finCount: e.finCount, rejCount: e.rejCount, sumJCT: e.sumJCT, sumWait: e.sumWait,
	}
	c.prio = slices.Clone(e.prio)
	c.states = make([]*jobState, len(e.states))
	copy(c.states, e.states)
	// remap duplicates a live state once and rewrites the index.
	remapped := make(map[*jobState]*jobState)
	remap := func(js *jobState) *jobState {
		if dup, ok := remapped[js]; ok {
			return dup
		}
		dup := &jobState{}
		*dup = *js
		remapped[js] = dup
		c.states[js.seq] = dup
		return dup
	}
	c.devs = make([]*device, len(e.devs))
	for i, d := range e.devs {
		dd := &device{}
		*dd = *d
		dd.lower = slices.Clone(d.lower)
		dd.resident = make([]*jobState, len(d.resident))
		for k, r := range d.resident {
			dd.resident[k] = remap(r)
		}
		c.devs[i] = dd
	}
	c.pending = make([]*jobState, len(e.pending))
	for i, p := range e.pending {
		c.pending[i] = remap(p)
	}
	c.q = make(eventQueue, len(e.q))
	copy(c.q, e.q)
	for _, ev := range c.q {
		if ev.class == classDone || ev.class == classArrival {
			remap(e.states[ev.job])
		}
	}
	if err := c.rebuildDerived(); err != nil {
		c.fail(err)
	}
	return c
}

// rebuildDerived reconstructs the state derived from devs: the
// free-capacity summary in isolated mode, every device planner under
// CrossJob. Both are pure functions of the devices — the summary of
// used and failed, a planner of its resident demand set, so
// re-admitting the residents in any order reproduces the exact plan.
// This is how newExec, clone and snapshot restore set them up without
// serializing either.
func (e *exec) rebuildDerived() error {
	if !e.crossjob {
		e.free = make([]int64, 0, len(e.devs))
		for _, d := range e.devs {
			if !d.failed {
				e.free = append(e.free, e.cap-d.used)
			}
		}
		slices.Sort(e.free)
		return nil
	}
	e.planners = make([]*memplan.Planner, len(e.devs))
	for di, d := range e.devs {
		pl, err := memplan.New(e.cap, e.spillCap, spillLink)
		if err != nil {
			return fmt.Errorf("sched: %w", err)
		}
		for _, r := range d.resident {
			if _, err := pl.Admit(r.demand); err != nil {
				return fmt.Errorf("sched: rebuilding gpu%d plan: %w", di, err)
			}
		}
		e.planners[di] = pl
	}
	return nil
}

// jobResult renders job i's outcome. Valid for finalized jobs at any
// time and for every job once the exec is drained.
func (e *exec) jobResult(i int) JobResult {
	js := e.states[i]
	jr := JobResult{Job: js.Job, Estimate: js.est}
	if js.rejReason != "" {
		jr.Rejected = true
		jr.Reason = js.rejReason
		jr.Device = -1
		return jr
	}
	jr.Device = js.device
	if len(js.gang) > 1 {
		jr.Gang = append([]int(nil), js.gang...)
	}
	jr.Start = js.start
	jr.Finish = js.finish
	jr.Wait = sim.Duration(js.start - js.Arrival)
	jr.JCT = sim.Duration(js.finish - js.Arrival)
	jr.Preemptions = js.preempts
	jr.Restores = js.restores
	jr.Shrinks = js.shrinks
	jr.LostIterations = js.lostIters
	return jr
}

// result assembles the full Result. The exec must be drained; the
// device integrals are closed as a side effect, so call it once, on a
// clone or at the end of a batch run.
func (e *exec) result() (*Result, error) {
	if e.runErr != nil {
		return nil, e.runErr
	}
	failedDevs := 0
	for _, d := range e.devs {
		if d.failed {
			failedDevs++
		}
	}
	for _, js := range e.states {
		if js.rejReason == "" && js.remaining > 0 {
			if failedDevs > 0 {
				return nil, fmt.Errorf("sched: job %s stranded with %d iterations left (%d of %d devices failed at end of trace)",
					js.ID, js.remaining, failedDevs, len(e.devs))
			}
			return nil, fmt.Errorf("sched: job %s stranded with %d iterations left (scheduler deadlock)", js.ID, js.remaining)
		}
	}
	res := &Result{Policy: e.policy.Name, Cluster: e.cluster}
	res.Jobs = make([]JobResult, len(e.states))
	for i := range e.states {
		res.Jobs[i] = e.jobResult(i)
	}
	end := e.now
	res.Makespan = sim.Duration(end)
	res.Devices = make([]DeviceStat, len(e.devs))
	var busySum sim.Duration
	var memSum float64
	for i, d := range e.devs {
		d.setUsed(end, 0) // close the integral
		if d.failed {
			// An outage still open at end of trace (a permanent
			// failure) is charged through the makespan.
			d.down += sim.Duration(end - d.downSince)
			d.downSince = end
		}
		st := DeviceStat{Busy: d.busy, PeakReserved: d.peak, Iterations: d.iters,
			PeakResidents: d.maxRes, SpillPeak: d.spillPeak,
			Failures: d.fails, Downtime: d.down}
		if end > 0 {
			st.BusyFrac = float64(st.Busy) / float64(end)
			st.MemUtil = d.memIntegral / (float64(e.cap) * float64(end))
		}
		res.Devices[i] = st
		busySum += st.Busy
		memSum += d.memIntegral
	}
	if end > 0 {
		res.Utilization = memSum / (float64(e.cap) * float64(len(e.devs)) * float64(end))
		res.ComputeUtilization = float64(busySum) / (float64(len(e.devs)) * float64(end))
	}
	return res, nil
}
