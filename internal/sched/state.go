package sched

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"slices"
	"strings"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/memplan"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Snapshot serialization for a paused Incremental replay: the serving
// layer's log-compaction checkpoint. A snapshot is a stream of workload
// frames (length + CRC), one encoding/json record per frame: a header
// (magic, policy, the Cluster whole, the clock and the aggregates),
// one record per job, one per device, one per queued event, and the
// string "end" last — so corruption is locatable and a torn snapshot
// never decodes. JSON carries every float64 exactly (shortest
// round-trip form; the estimator key embeds the device spec, so a
// restored spec must compare equal bit for bit); the two values it
// cannot carry exactly, invalid UTF-8 and non-finite floats, make
// AppendSnapshot fail with ErrSnapshotValue instead. The decoder is
// defensive: unknown fields are refused, every index is validated, and
// malformed or truncated input returns an error — never a panic —
// which FuzzRestoreIncremental enforces.

// snapMagic opens the header record; the version suffix gates layout
// changes, and any other generation is refused, not converted.
const snapMagic = "snsnap 4"

// ErrSnapshotValue reports a value a snapshot record cannot carry
// exactly: a string that is not valid UTF-8 (encoding/json would
// rewrite it to U+FFFD) or a NaN or infinite float (JSON has neither).
var ErrSnapshotValue = errors.New("sched: snapshot: value JSON cannot carry exactly")

// snapHeader is the first record. Jobs and Events count the job and
// event records that follow; the device records number
// Cluster.Devices. Pending lists the queued jobs by index, in any
// order: restore re-enqueues them in policy order.
type snapHeader struct {
	Magic, Policy      string
	Cluster            Cluster
	Mark, Now          sim.Time
	DoneSeq            int64
	Finished, Rejected int
	SumJCT, SumWait    sim.Duration
	Jobs, Events       int
	Pending            []int `json:",omitempty"`
}

// snapJob is one job: its Job fields, then its replay state. The
// schedule travels run-length encoded (workload.Schedule.String) and
// the iteration times once per distinct batch, so a schedule of
// workload.MaxScheduleLen entries still makes a small record. The
// estimate carries GradientBytes so a restored gang re-prices
// identically after a preemption, and its floor so a re-admitted job
// plans identically; LiveDone is the live completion
// sequence (the stale-completion guard).
type snapJob struct {
	ID, Network, Manager string
	Batch                int
	Schedule             string `json:",omitempty"`
	GPUs, Priority       int
	Arrival              sim.Time
	Iterations           int

	Reject                                 string `json:",omitempty"`
	Est                                    core.Estimate
	IterTimes                              map[int]sim.Duration `json:",omitempty"`
	Remaining, Device                      int
	Gang                                   []int        `json:",omitempty"`
	GangAR                                 sim.Duration `json:",omitempty"`
	Started, Marked, Running               bool         `json:",omitempty"`
	Start, Finish                          sim.Time     `json:",omitempty"`
	Preempts, Restores, Shrinks, LostIters int          `json:",omitempty"`
	LiveDone                               int64
	// Demand is the job's tensor-granularity planner demand under
	// CrossJob, serialized directly rather than rebuilt from the
	// program at restore — a restored replay must not depend on
	// model-zoo code (or pay its dry-run cost) to resume, and a
	// hostile snapshot must not be able to steer a program build.
	Demand *snapDemand `json:",omitempty"`
}

// snapDemand is the part of a memplan.Demand the job's estimate does
// not already carry.
type snapDemand struct {
	FloorBytes int64
	Tensors    []memplan.TensorDemand `json:",omitempty"`
}

// snapDev is one device: the engine clock, the reservations and
// residents (by job index), the co-tenancy high-water marks and the
// fault state.
type snapDev struct {
	FreeAt, LastT, DownSince sim.Time     `json:",omitempty"`
	Busy, Down               sim.Duration `json:",omitempty"`
	Used, Peak, SpillPeak    int64        `json:",omitempty"`
	Resident                 []int        `json:",omitempty"`
	RR, Iters, MaxRes, Fails int          `json:",omitempty"`
	Inflight, Failed         bool         `json:",omitempty"`
	MemIntegral              float64      `json:",omitempty"`
}

// snapEvent is one queued event. Undelivered fault events travel here
// like every other event, so restore never re-posts the fault plan.
type snapEvent struct {
	At       sim.Time
	Class    uint8
	Seq      int64
	Job, Dev int
}

// snapEnd is the last record.
const snapEnd = "end"

// AppendSnapshot appends the framed snapshot of the paused replay to
// dst, one frame per record. Restoring the bytes with
// RestoreIncremental yields an Incremental whose Result() is
// byte-identical to the original's. A value JSON cannot carry exactly
// is an ErrSnapshotValue error, a record too large for one frame
// (workload.MaxFramePayload) is an error, and on error dst is returned
// unchanged.
func AppendSnapshot(dst []byte, inc *Incremental) ([]byte, error) {
	e := inc.ex
	c := e.cluster
	tp := c.Topology
	if err := exactText("cluster", e.policy.Name, c.Device.Name, tp.NVLink.Name, tp.PCIe.Name, tp.Network.Name); err != nil {
		return dst, err
	}
	recs := []any{snapHeader{
		Magic: snapMagic, Policy: e.policy.Name, Cluster: c,
		Mark: inc.mark, Now: e.now, DoneSeq: e.doneSeq,
		Finished: e.finCount, Rejected: e.rejCount, SumJCT: e.sumJCT, SumWait: e.sumWait,
		Jobs: len(e.states), Events: len(e.q), Pending: seqs(e.pending),
	}}
	for i, js := range e.states {
		if err := exactText(fmt.Sprintf("job %d", i), js.ID, js.Network, js.Manager, js.rejReason); err != nil {
			return dst, err
		}
		recs = append(recs, jobRecord(js))
	}
	for _, d := range e.devs {
		recs = append(recs, snapDev{
			FreeAt: d.freeAt, Busy: d.busy, Used: d.used, Peak: d.peak,
			Resident: seqs(d.resident), RR: d.rr, Inflight: d.inflight, Iters: d.iters,
			MemIntegral: d.memIntegral, LastT: d.lastT, MaxRes: d.maxRes, SpillPeak: d.spillPeak,
			Failed: d.failed, DownSince: d.downSince, Down: d.down, Fails: d.fails,
		})
	}
	for _, ev := range e.q {
		recs = append(recs, snapEvent{At: ev.at, Class: ev.class, Seq: ev.seq, Job: ev.job, Dev: ev.dev})
	}
	recs = append(recs, snapEnd)

	var b bytes.Buffer
	for _, r := range recs {
		// Marshal fails only on a NaN or infinite float.
		line, err := json.Marshal(r)
		if err != nil {
			return dst, fmt.Errorf("%w: %v", ErrSnapshotValue, err)
		}
		b.Write(line)
		b.WriteByte('\n')
	}
	return workload.AppendLines(dst, b.Bytes())
}

// jobRecord is the snapshot record of one job.
func jobRecord(js *jobState) snapJob {
	r := snapJob{
		ID: js.ID, Network: js.Network, Manager: js.Manager, Batch: js.Batch,
		GPUs: js.GPUs, Priority: js.Priority, Arrival: js.Arrival, Iterations: js.Iterations,
		Reject: js.rejReason, Est: js.est, Remaining: js.remaining, Device: js.device,
		Gang: js.gang, GangAR: js.gangAR, Started: js.started, Start: js.start, Finish: js.finish,
		Preempts: js.preempts, Marked: js.marked, Running: js.running, LiveDone: js.liveDone,
		Restores: js.restores, Shrinks: js.shrinks, LostIters: js.lostIters,
	}
	if len(js.BatchSchedule) > 0 {
		r.Schedule = workload.Schedule(js.BatchSchedule).String()
	}
	if len(js.iterTimes) > 0 {
		// iterTimes[k] is always the time of the batch at position k.
		r.IterTimes = make(map[int]sim.Duration)
		for k, batch := range iterBatches(js) {
			r.IterTimes[batch] = js.iterTimes[k]
		}
	}
	if js.demand.Job != "" {
		r.Demand = &snapDemand{FloorBytes: js.demand.FloorBytes, Tensors: js.demand.Tensors}
	}
	return r
}

// exactText refuses strings encoding/json would not carry exactly.
func exactText(what string, ss ...string) error {
	for _, s := range ss {
		if !utf8.ValidString(s) {
			return fmt.Errorf("%w: %s: %q is not valid UTF-8", ErrSnapshotValue, what, s)
		}
	}
	return nil
}

// seqs lists the jobs' indices.
func seqs(jobs []*jobState) []int {
	var out []int
	for _, js := range jobs {
		out = append(out, js.seq)
	}
	return out
}

// RestoreIncremental reconstructs a paused replay from AppendSnapshot
// bytes. The estimator est seeds dry-run estimates for jobs appended
// after the restore (nil allocates a fresh one); already-snapshotted
// jobs carry their estimates in the snapshot.
func RestoreIncremental(data []byte, est *Estimator) (*Incremental, error) {
	lines, err := workload.ReadLines(data)
	if err != nil {
		return nil, fmt.Errorf("sched: snapshot: %w", err)
	}
	// next decodes the next record into v; its errors carry the
	// 1-based record number.
	n := 0
	next := func(v any) error {
		if n == len(lines) {
			return fmt.Errorf("sched: snapshot record %d: unexpected end of snapshot", n+1)
		}
		n++
		dec := json.NewDecoder(strings.NewReader(lines[n-1]))
		dec.DisallowUnknownFields()
		if err := dec.Decode(v); err != nil {
			return fmt.Errorf("sched: snapshot record %d: %w", n, err)
		}
		if _, err := dec.Token(); err != io.EOF {
			return fmt.Errorf("sched: snapshot record %d: data after the record", n)
		}
		return nil
	}

	var h snapHeader
	if err := next(&h); err != nil {
		return nil, err
	}
	if h.Magic != snapMagic {
		return nil, fmt.Errorf("sched: snapshot record 1: bad magic %q", h.Magic)
	}
	policy, ok := PolicyByName(h.Policy)
	if !ok {
		return nil, fmt.Errorf("sched: snapshot: unknown policy %q", h.Policy)
	}
	// Bound the declared counts before anything is sized by them.
	ndev := h.Cluster.Devices
	if ndev < 1 || ndev > 1<<16 {
		return nil, fmt.Errorf("sched: snapshot: %d devices out of range [1,%d]", ndev, 1<<16)
	}
	if h.Jobs < 0 || h.Jobs > 1<<24 || h.Events < 0 || h.Events > 1<<24 {
		return nil, fmt.Errorf("sched: snapshot: %d jobs or %d events out of range [0,%d]", h.Jobs, h.Events, 1<<24)
	}
	// newExec would resolve a missing pool to the default; a snapshot
	// always records the resolved size.
	if h.Cluster.CrossJob && h.Cluster.HostSpillBytes <= 0 {
		return nil, fmt.Errorf("sched: snapshot: cross-job cluster with spill pool %d", h.Cluster.HostSpillBytes)
	}
	// newExec re-validates the fault plan, so a hand-crafted header
	// cannot smuggle in an inconsistent event sequence.
	ex, err := newExec(h.Cluster, policy, est)
	if err != nil {
		return nil, fmt.Errorf("sched: snapshot: %w", err)
	}
	ex.now = h.Now
	ex.doneSeq = h.DoneSeq
	ex.finCount = h.Finished
	ex.rejCount = h.Rejected
	ex.sumJCT = h.SumJCT
	ex.sumWait = h.SumWait

	for i := 0; i < h.Jobs; i++ {
		var r snapJob
		if err := next(&r); err != nil {
			return nil, err
		}
		js, err := restoreJob(ex, i, r)
		if err != nil {
			return nil, err
		}
		ex.states = append(ex.states, js)
	}

	jobAt := func(idx int, what string) (*jobState, error) {
		if idx < 0 || idx >= len(ex.states) {
			return nil, fmt.Errorf("sched: snapshot: %s references job %d of %d", what, idx, len(ex.states))
		}
		return ex.states[idx], nil
	}

	for i, d := range ex.devs {
		var r snapDev
		if err := next(&r); err != nil {
			return nil, err
		}
		d.freeAt, d.busy, d.used, d.peak = r.FreeAt, r.Busy, r.Used, r.Peak
		d.rr, d.inflight, d.iters = r.RR, r.Inflight, r.Iters
		d.memIntegral, d.lastT = r.MemIntegral, r.LastT
		d.maxRes, d.spillPeak = r.MaxRes, r.SpillPeak
		d.failed, d.downSince, d.down, d.fails = r.Failed, r.DownSince, r.Down, r.Fails
		if d.fails < 0 || d.down < 0 {
			return nil, fmt.Errorf("sched: snapshot: dev %d has negative fault counters", i)
		}
		for _, s := range r.Resident {
			js, err := jobAt(s, "resident list")
			if err != nil {
				return nil, err
			}
			if !slices.Contains(js.gang, i) {
				return nil, fmt.Errorf("sched: snapshot: job %d resident on dev %d but placed on %v", js.seq, i, js.gang)
			}
			d.resident = append(d.resident, js)
		}
		if len(d.resident) > 0 {
			if d.rr < 0 || d.rr >= len(d.resident) {
				return nil, fmt.Errorf("sched: snapshot: dev %d: round-robin cursor %d out of range", i, d.rr)
			}
		} else if d.rr != 0 {
			return nil, fmt.Errorf("sched: snapshot: dev %d: round-robin cursor %d with no residents", i, d.rr)
		}
		// A high-water mark can never sit below the current residency.
		if d.maxRes < len(d.resident) {
			return nil, fmt.Errorf("sched: snapshot: dev %d: %d residents above high-water mark %d", i, len(d.resident), d.maxRes)
		}
		// A failed device holds no residents and runs nothing — its
		// victims were displaced when the failure fired.
		if d.failed && (len(d.resident) > 0 || d.inflight) {
			return nil, fmt.Errorf("sched: snapshot: dev %d failed but has residents or in-flight work", i)
		}
	}

	for _, s := range h.Pending {
		js, err := jobAt(s, "pending list")
		if err != nil {
			return nil, err
		}
		ex.enqueue(js)
	}

	for k := 0; k < h.Events; k++ {
		var r snapEvent
		if err := next(&r); err != nil {
			return nil, err
		}
		ev := event{at: r.At, class: r.Class, seq: r.Seq, job: r.Job, dev: r.Dev}
		switch ev.class {
		case classArrival, classDone:
			if _, err := jobAt(ev.job, "event"); err != nil {
				return nil, err
			}
		case classFault:
			// A fault event's job field is the recover flag, not a job
			// index.
			if ev.job != 0 && ev.job != 1 {
				return nil, fmt.Errorf("sched: snapshot: fault event %d has recover flag %d", k, ev.job)
			}
		default:
			return nil, fmt.Errorf("sched: snapshot: event %d has class %d", k, ev.class)
		}
		if ev.dev < 0 || ev.dev >= ndev {
			return nil, fmt.Errorf("sched: snapshot: event %d references device %d of %d", k, ev.dev, ndev)
		}
		ex.q.push(ev)
	}

	var end string
	if err := next(&end); err != nil {
		return nil, err
	}
	if end != snapEnd {
		return nil, fmt.Errorf("sched: snapshot record %d: want end marker, got %q", n, end)
	}
	if rest := len(lines) - n; rest > 0 {
		return nil, fmt.Errorf("sched: snapshot: %d records after the end marker", rest)
	}
	// Reconstruct the device planners from the restored residents and
	// their demands (a resident without a usable demand, from a
	// hand-crafted snapshot, surfaces here as an error, never a panic),
	// or in isolated mode the free-capacity summary. Both run after
	// every device record is read, so the summary sees the failed flags.
	if err := ex.rebuildDerived(); err != nil {
		return nil, fmt.Errorf("sched: snapshot: %w", err)
	}
	ex.rebuildSummary()
	// The event loop runs the admission pass only when its inputs
	// change, so it resumes correctly only from a state the pass has
	// settled — which is every state AppendSnapshot writes.
	if !ex.atRest() {
		return nil, fmt.Errorf("sched: snapshot: admission pass not at rest (a pending job would be admitted or a victim preempted)")
	}
	return &Incremental{ex: ex, mark: h.Mark}, nil
}

// restoreJob rebuilds job i from its record and checks the invariants
// the event loop relies on to never index out of range, so a corrupted
// snapshot fails here, not as a panic mid-simulation.
func restoreJob(ex *exec, i int, r snapJob) (*jobState, error) {
	js := &jobState{seq: i, Job: Job{
		ID: r.ID, Network: r.Network, Manager: r.Manager, Batch: r.Batch, GPUs: r.GPUs,
		Priority: r.Priority, Arrival: r.Arrival, Iterations: r.Iterations,
	},
		rejReason: r.Reject, est: r.Est, remaining: r.Remaining, device: r.Device,
		gang: r.Gang, gangAR: r.GangAR, started: r.Started, start: r.Start, finish: r.Finish,
		preempts: r.Preempts, marked: r.Marked, running: r.Running, liveDone: r.LiveDone,
		restores: r.Restores, shrinks: r.Shrinks, lostIters: r.LostIters,
	}
	if r.Schedule != "" {
		// ParseSchedule bounds the expanded length.
		sc, err := workload.ParseSchedule(r.Schedule)
		if err != nil {
			return nil, fmt.Errorf("sched: snapshot: job %d: bad batch schedule: %v", i, err)
		}
		js.BatchSchedule = sc
	}
	if len(r.IterTimes) > 0 {
		for _, b := range iterBatches(js) {
			t, ok := r.IterTimes[b]
			if !ok {
				return nil, fmt.Errorf("sched: snapshot: job %d: no iteration time for batch %d", i, b)
			}
			js.iterTimes = append(js.iterTimes, t)
		}
	}
	if r.Demand != nil {
		if !ex.crossjob {
			return nil, fmt.Errorf("sched: snapshot: job %d has a planner demand on an isolated cluster", i)
		}
		js.demand = memplan.Demand{
			Job:        plannerID(js),
			PeakBytes:  js.est.PeakBytes,
			FloorBytes: r.Demand.FloorBytes,
			Tensors:    r.Demand.Tensors,
		}
	}
	if js.Iterations < 1 {
		return nil, fmt.Errorf("sched: snapshot: job %d has %d iterations", i, js.Iterations)
	}
	if js.GPUs < 1 {
		return nil, fmt.Errorf("sched: snapshot: job %d has gang size %d", i, js.GPUs)
	}
	if js.rejReason != "" {
		return js, nil
	}
	ndev := len(ex.devs)
	if len(js.iterTimes) == 0 {
		return nil, fmt.Errorf("sched: snapshot: job %d has no iteration times", i)
	}
	if js.remaining < 0 || js.remaining > js.Iterations {
		return nil, fmt.Errorf("sched: snapshot: job %d has %d of %d iterations remaining", i, js.remaining, js.Iterations)
	}
	if js.device < -1 || js.device >= ndev {
		return nil, fmt.Errorf("sched: snapshot: job %d on device %d of %d", i, js.device, ndev)
	}
	if js.gangAR < 0 {
		return nil, fmt.Errorf("sched: snapshot: job %d has negative all-reduce price", i)
	}
	if js.restores < 0 || js.shrinks < 0 || js.lostIters < 0 || js.liveDone < -1 {
		return nil, fmt.Errorf("sched: snapshot: job %d has negative fault counters", i)
	}
	// Gang members must be valid, strictly ascending device indices —
	// the event loop indexes devices through them — and a placed job's
	// device leads its gang.
	for k, g := range js.gang {
		if g < 0 || g >= ndev {
			return nil, fmt.Errorf("sched: snapshot: job %d gang member %d of %d devices", i, g, ndev)
		}
		if k > 0 && g <= js.gang[k-1] {
			return nil, fmt.Errorf("sched: snapshot: job %d gang not strictly ascending", i)
		}
	}
	if js.device >= 0 && (len(js.gang) == 0 || js.gang[0] != js.device) {
		return nil, fmt.Errorf("sched: snapshot: job %d on device %d but placed on %v", i, js.device, js.gang)
	}
	return js, nil
}

// iterBatches is the batch at each iteration-time position: the
// dynamic schedule, or the static batch alone.
func iterBatches(js *jobState) []int {
	if len(js.BatchSchedule) > 0 {
		return js.BatchSchedule
	}
	return []int{js.Batch}
}
