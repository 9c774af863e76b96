package sched

import (
	"bytes"
	"fmt"
	"math"
	"net/url"
	"strconv"
	"strings"

	"repro/internal/hw"
	"repro/internal/memplan"
	"repro/internal/sim"
	"repro/internal/workload"
)

// Snapshot serialization for a paused Incremental replay: the serving
// layer's log-compaction checkpoint. A snapshot is a stream of workload
// frames (length + CRC), one keyword-prefixed text line per record —
// the "snsnap 2" header first, the "end" record last — so records diff
// cleanly, corruption is locatable and a torn snapshot never decodes.
// Floats round-trip exactly through their IEEE-754 bit patterns (the
// estimator key embeds the device spec, so a restored spec must
// compare equal bit for bit), and strings through percent-encoding
// (device names contain spaces, and every field must survive a
// whitespace split). The decoder is defensive: every record is
// bounds-checked, every index validated, and malformed or truncated
// input returns an error — never a panic — which
// FuzzRestoreIncremental enforces.

// snapMagic is the header record; the version suffix gates future
// layout changes.
const snapMagic = "snsnap 2"

// EncodeSnapshot serializes the paused replay. Restoring the bytes
// with RestoreIncremental yields an Incremental whose Result() is
// byte-identical to the original's. It panics where AppendSnapshot
// returns an error.
func EncodeSnapshot(inc *Incremental) []byte {
	b, err := AppendSnapshot(nil, inc)
	if err != nil {
		panic(err)
	}
	return b
}

// AppendSnapshot appends the framed snapshot of the paused replay to
// dst, one frame per record line. A record too large for one frame
// (workload.MaxFramePayload) is an error, and dst is returned
// unchanged.
func AppendSnapshot(dst []byte, inc *Incremental) ([]byte, error) {
	e := inc.ex
	var b bytes.Buffer
	fmt.Fprintf(&b, "%s\n", snapMagic)
	fmt.Fprintf(&b, "policy %s\n", e.policy.Name)
	d := e.cluster.Device
	fmt.Fprintf(&b, "device %s %d %d %s %s %d %d %d %d %s %s\n",
		qstr(d.Name), d.DRAMBytes, d.UsableBytes,
		fbits(d.PeakFLOPS), fbits(d.MemBWBytes),
		int64(d.KernelLaunch), int64(d.CudaMalloc), int64(d.CudaFree), int64(d.PoolOp),
		fbits(d.EffScale), fbits(d.MemEffScale))
	fmt.Fprintf(&b, "devices %d\n", e.cluster.Devices)
	tp := e.cluster.Topology
	fmt.Fprintf(&b, "topo %d %d %d %s %s %d %s %s %d %s %s %d\n",
		tp.DevicesPerNode, tp.NVLinkIsland, b2i(e.cluster.Overlap),
		qstr(tp.NVLink.Name), fbits(tp.NVLink.BytesPerSec), int64(tp.NVLink.Latency),
		qstr(tp.PCIe.Name), fbits(tp.PCIe.BytesPerSec), int64(tp.PCIe.Latency),
		qstr(tp.Network.Name), fbits(tp.Network.BytesPerSec), int64(tp.Network.Latency))
	// The plan record marks a CrossJob snapshot and carries the spill
	// pool size; its absence means isolated admission. Planner state is
	// never serialized — restore re-admits each device's residents
	// (rebuildDerived), and purity guarantees the identical plan.
	if e.crossjob {
		fmt.Fprintf(&b, "plan %d\n", e.spillCap)
	}
	// The faults record carries the cluster's scripted fault plan; its
	// absence means an always-healthy cluster. The undelivered fault
	// events themselves travel in the event queue like every other
	// event — this record only preserves the plan for reporting and
	// re-validation.
	if n := len(e.cluster.Faults.Events); n > 0 {
		fmt.Fprintf(&b, "faults %d", n)
		for _, fe := range e.cluster.Faults.Events {
			fmt.Fprintf(&b, " %d %d %d", int64(fe.At), fe.Device, b2i(fe.Recover))
		}
		b.WriteByte('\n')
	}
	fmt.Fprintf(&b, "clock %d %d %d\n", int64(inc.mark), int64(e.now), e.doneSeq)
	fmt.Fprintf(&b, "agg %d %d %d %d\n", e.finCount, e.rejCount, int64(e.sumJCT), int64(e.sumWait))

	fmt.Fprintf(&b, "jobs %d\n", len(e.states))
	for i, js := range e.states {
		// The schedule travels run-length encoded and the iteration
		// times once per distinct batch, so a schedule of
		// workload.MaxScheduleLen entries still makes small records.
		sched := "-"
		if len(js.BatchSchedule) > 0 {
			sched = workload.Schedule(js.BatchSchedule).String()
		}
		fmt.Fprintf(&b, "job %d %s %s %s %d %d %d %d %s %d\n",
			i, qstr(js.ID), qstr(js.Network), qstr(js.Manager),
			js.Batch, js.Priority, int64(js.Arrival), js.Iterations, sched, js.GPUs)
		fmt.Fprintf(&b, "state %d %s %d %d %s %d %d %d %d %d %d %d %d %s",
			i, qstr(js.rejReason),
			js.est.PeakBytes, int64(js.est.IterTime), fbits(js.est.Throughput),
			js.remaining, js.device, b2i(js.started), int64(js.start), int64(js.finish),
			js.preempts, b2i(js.marked), b2i(js.running), iterField(js))
		// After the iteration times: gang placement and all-reduce price,
		// with GradientBytes so a restored gang re-prices identically
		// after a preemption and the estimate's floor and spill traffic
		// so a re-admitted job plans identically; then the
		// fault-recovery counters and the live completion sequence (the
		// stale-completion guard).
		fmt.Fprintf(&b, " %s %d %d %d %d", intList(js.gang), int64(js.gangAR), js.est.GradientBytes,
			js.est.FloorBytes, js.est.SpillBytes)
		fmt.Fprintf(&b, " %d %d %d %d", js.restores, js.shrinks, js.lostIters, js.liveDone)
		b.WriteByte('\n')
		// The demand record serializes the job's tensor-granularity
		// planner demand directly rather than rebuilding it from the
		// program at restore — a restored replay must not depend on
		// model-zoo code (or pay its dry-run cost) to resume, and a
		// hostile snapshot must not be able to steer a program build.
		if e.crossjob && js.demand.Job != "" {
			fmt.Fprintf(&b, "demand %d %d %d %d", i, js.demand.FloorBytes, js.demand.SpillBytes, len(js.demand.Tensors))
			for _, td := range js.demand.Tensors {
				fmt.Fprintf(&b, " %s %d %d %d", strconv.FormatUint(td.Key, 10), td.Bytes, td.Width, td.NextUse)
			}
			b.WriteByte('\n')
		}
	}

	for i, d := range e.devs {
		fmt.Fprintf(&b, "dev %d %d %d %d %d %d %d %d %s %d",
			i, int64(d.freeAt), int64(d.busy), d.used, d.peak, d.rr, b2i(d.inflight),
			d.iters, fbits(d.memIntegral), int64(d.lastT))
		fmt.Fprintf(&b, " %d", len(d.resident))
		for _, r := range d.resident {
			fmt.Fprintf(&b, " %d", r.seq)
		}
		// After the residents: the co-tenancy high-water marks, then the
		// fault state (failed flag, outage stamps, failure count).
		fmt.Fprintf(&b, " %d %d", d.maxRes, d.spillPeak)
		fmt.Fprintf(&b, " %d %d %d %d", b2i(d.failed), int64(d.downSince), int64(d.down), d.fails)
		b.WriteByte('\n')
	}

	fmt.Fprintf(&b, "pending %d", len(e.pending))
	for _, p := range e.pending {
		fmt.Fprintf(&b, " %d", p.seq)
	}
	b.WriteByte('\n')

	fmt.Fprintf(&b, "events %d\n", len(e.q))
	for _, ev := range e.q {
		fmt.Fprintf(&b, "ev %d %d %d %d %d\n", int64(ev.at), ev.class, ev.seq, ev.job, ev.dev)
	}
	fmt.Fprintf(&b, "end\n")
	return workload.AppendLines(dst, b.Bytes())
}

// RestoreIncremental reconstructs a paused replay from EncodeSnapshot
// bytes. The estimator est seeds dry-run estimates for jobs appended
// after the restore (nil allocates a fresh one); already-snapshotted
// jobs carry their estimates in the snapshot.
func RestoreIncremental(data []byte, est *Estimator) (*Incremental, error) {
	lines, err := workload.ReadLines(data)
	if err != nil {
		return nil, fmt.Errorf("sched: snapshot: %w", err)
	}
	r := &snapReader{lines: lines}
	if line := r.next(); line != snapMagic {
		return nil, fmt.Errorf("sched: snapshot: bad magic %q", line)
	}

	f := r.fields("policy", 2)
	if r.err != nil {
		return nil, r.err
	}
	policy, ok := PolicyByName(f[1])
	if !ok {
		return nil, fmt.Errorf("sched: snapshot: unknown policy %q", f[1])
	}

	f = r.fields("device", 12)
	if r.err != nil {
		return nil, r.err
	}
	var spec hw.DeviceSpec
	spec.Name = r.unquote(f[1])
	spec.DRAMBytes = r.i64(f[2])
	spec.UsableBytes = r.i64(f[3])
	spec.PeakFLOPS = r.f64(f[4])
	spec.MemBWBytes = r.f64(f[5])
	spec.KernelLaunch = sim.Duration(r.i64(f[6]))
	spec.CudaMalloc = sim.Duration(r.i64(f[7]))
	spec.CudaFree = sim.Duration(r.i64(f[8]))
	spec.PoolOp = sim.Duration(r.i64(f[9]))
	spec.EffScale = r.f64(f[10])
	spec.MemEffScale = r.f64(f[11])

	f = r.fields("devices", 2)
	ndev := r.count(f, 1, 1<<16)
	f = r.fields("topo", 13)
	if r.err != nil {
		return nil, r.err
	}
	var topo hw.Topology
	topo.DevicesPerNode = int(r.i64(f[1]))
	topo.NVLinkIsland = int(r.i64(f[2]))
	overlap := r.i64(f[3]) != 0
	topo.NVLink = hw.LinkSpec{Name: r.unquote(f[4]), BytesPerSec: r.f64(f[5]), Latency: sim.Duration(r.i64(f[6]))}
	topo.PCIe = hw.LinkSpec{Name: r.unquote(f[7]), BytesPerSec: r.f64(f[8]), Latency: sim.Duration(r.i64(f[9]))}
	topo.Network = hw.LinkSpec{Name: r.unquote(f[10]), BytesPerSec: r.f64(f[11]), Latency: sim.Duration(r.i64(f[12]))}
	// Optional plan record: present exactly when the snapshot was taken
	// under CrossJob.
	crossjob := false
	var spillCap int64
	if f := r.fieldsOpt("plan", 2); f != nil {
		crossjob = true
		if len(f) != 2 {
			return nil, fmt.Errorf("sched: snapshot: plan record needs 2 fields, got %d", len(f))
		}
		spillCap = r.i64(f[1])
		if r.err == nil && spillCap <= 0 {
			return nil, fmt.Errorf("sched: snapshot: plan record with spill pool %d", spillCap)
		}
	}
	// Optional faults record: the scripted fault plan, present exactly
	// when the cluster has one. The plan is re-validated by newExec
	// below, so a hand-crafted record cannot smuggle in an inconsistent
	// event sequence.
	var faults FaultPlan
	if f := r.fieldsOpt("faults", 2); f != nil {
		nfe := r.count(f, 1, 1<<16)
		rest := r.tail(2)
		if r.err == nil && len(rest) != 3*nfe {
			return nil, fmt.Errorf("sched: snapshot: %d fault events declared, %d fields present", nfe, len(rest))
		}
		for k := 0; k < nfe && r.err == nil; k++ {
			faults.Events = append(faults.Events, FaultEvent{
				At:      sim.Time(r.i64(rest[3*k])),
				Device:  int(r.i64(rest[3*k+1])),
				Recover: r.i64(rest[3*k+2]) != 0,
			})
		}
	}
	f = r.fields("clock", 4)
	if r.err != nil {
		return nil, r.err
	}
	mark := sim.Time(r.i64(f[1]))
	now := sim.Time(r.i64(f[2]))
	doneSeq := r.i64(f[3])
	f = r.fields("agg", 5)
	if r.err != nil {
		return nil, r.err
	}
	finCount := int(r.i64(f[1]))
	rejCount := int(r.i64(f[2]))
	sumJCT := sim.Duration(r.i64(f[3]))
	sumWait := sim.Duration(r.i64(f[4]))

	ex, err := newExec(Cluster{Device: spec, Devices: ndev, Topology: topo, Overlap: overlap,
		CrossJob: crossjob, HostSpillBytes: spillCap, Faults: faults}, policy, est)
	if err != nil {
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("sched: snapshot: %w", err)
	}
	ex.now = now
	ex.doneSeq = doneSeq
	ex.finCount = finCount
	ex.rejCount = rejCount
	ex.sumJCT = sumJCT
	ex.sumWait = sumWait

	f = r.fields("jobs", 2)
	njobs := r.count(f, 1, 1<<24)
	if r.err != nil {
		return nil, r.err
	}
	for i := 0; i < njobs && r.err == nil; i++ {
		f = r.fields("job", 11)
		if r.err != nil {
			break
		}
		if int(r.i64(f[1])) != i {
			return nil, fmt.Errorf("sched: snapshot: job record %s out of order (want %d)", f[1], i)
		}
		js := &jobState{seq: i}
		js.ID = r.unquote(f[2])
		js.Network = r.unquote(f[3])
		js.Manager = r.unquote(f[4])
		js.Batch = int(r.i64(f[5]))
		js.Priority = int(r.i64(f[6]))
		js.Arrival = sim.Time(r.i64(f[7]))
		js.Iterations = int(r.i64(f[8]))
		if f[9] != "-" {
			// ParseSchedule bounds the expanded length.
			sc, err := workload.ParseSchedule(f[9])
			if err != nil {
				r.fail("bad batch schedule: %v", err)
			}
			js.BatchSchedule = sc
		}
		js.GPUs = int(r.i64(f[10]))

		// The state record: 15 fields through the iteration times, then
		// the gang/estimate tail (5) and the fault tail (4).
		f = r.fields("state", 24)
		if r.err != nil {
			break
		}
		if int(r.i64(f[1])) != i {
			return nil, fmt.Errorf("sched: snapshot: state record %s out of order (want %d)", f[1], i)
		}
		js.rejReason = r.unquote(f[2])
		js.est.PeakBytes = r.i64(f[3])
		js.est.IterTime = sim.Duration(r.i64(f[4]))
		js.est.Throughput = r.f64(f[5])
		js.remaining = int(r.i64(f[6]))
		js.device = int(r.i64(f[7]))
		js.started = r.i64(f[8]) != 0
		js.start = sim.Time(r.i64(f[9]))
		js.finish = sim.Time(r.i64(f[10]))
		js.preempts = int(r.i64(f[11]))
		js.marked = r.i64(f[12]) != 0
		js.running = r.i64(f[13]) != 0
		js.iterTimes = r.iterTimes(js, f[14])
		js.gang = r.ints(f[15])
		js.gangAR = sim.Duration(r.i64(f[16]))
		js.est.GradientBytes = r.i64(f[17])
		js.est.FloorBytes = r.i64(f[18])
		js.est.SpillBytes = r.i64(f[19])
		js.restores = int(r.i64(f[20]))
		js.shrinks = int(r.i64(f[21]))
		js.lostIters = int(r.i64(f[22]))
		js.liveDone = r.i64(f[23])
		// Optional demand record: the job's planner demand under
		// CrossJob, replayed verbatim so rebuildDerived reproduces the
		// paused plan bit for bit.
		if f := r.fieldsOpt("demand", 5); f != nil {
			if !crossjob {
				return nil, fmt.Errorf("sched: snapshot: job %d has a demand record without a plan record", i)
			}
			if int(r.i64(f[1])) != i {
				return nil, fmt.Errorf("sched: snapshot: demand record %s out of order (want %d)", f[1], i)
			}
			js.demand = memplan.Demand{
				Job:        plannerID(js),
				PeakBytes:  js.est.PeakBytes,
				FloorBytes: r.i64(f[2]),
				SpillBytes: r.i64(f[3]),
				IterTime:   js.est.IterTime,
			}
			ntd := r.count(f, 4, 1<<16)
			td := r.tail(5)
			if r.err == nil && len(td) != 4*ntd {
				return nil, fmt.Errorf("sched: snapshot: job %d: %d demand tensors declared, %d fields present", i, ntd, len(td))
			}
			for k := 0; k < ntd && r.err == nil; k++ {
				js.demand.Tensors = append(js.demand.Tensors, memplan.TensorDemand{
					Key:     r.u64(td[4*k]),
					Bytes:   r.i64(td[4*k+1]),
					Width:   int(r.i64(td[4*k+2])),
					NextUse: int(r.i64(td[4*k+3])),
				})
			}
		}
		// Resume safety: these invariants are what the event loop
		// relies on to never index out of range, so a corrupted
		// snapshot must fail here, not panic later.
		if js.Iterations < 1 {
			return nil, fmt.Errorf("sched: snapshot: job %d has %d iterations", i, js.Iterations)
		}
		if js.GPUs < 1 {
			return nil, fmt.Errorf("sched: snapshot: job %d has gang size %d", i, js.GPUs)
		}
		if js.rejReason == "" {
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
			// Gang members must be valid, strictly ascending device
			// indices — the event loop indexes devices through them —
			// and a placed job's device leads its gang.
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
		}
		ex.states = append(ex.states, js)
	}
	if r.err != nil {
		return nil, r.err
	}

	jobAt := func(idx int64, what string) (*jobState, error) {
		if idx < 0 || idx >= int64(len(ex.states)) {
			return nil, fmt.Errorf("sched: snapshot: %s references job %d of %d", what, idx, len(ex.states))
		}
		return ex.states[idx], nil
	}

	for i := 0; i < ndev && r.err == nil; i++ {
		f = r.fields("dev", 12)
		if r.err != nil {
			break
		}
		if int(r.i64(f[1])) != i {
			return nil, fmt.Errorf("sched: snapshot: dev record %s out of order (want %d)", f[1], i)
		}
		d := ex.devs[i]
		d.freeAt = sim.Time(r.i64(f[2]))
		d.busy = sim.Duration(r.i64(f[3]))
		d.used = r.i64(f[4])
		d.peak = r.i64(f[5])
		d.rr = int(r.i64(f[6]))
		d.inflight = r.i64(f[7]) != 0
		d.iters = int(r.i64(f[8]))
		d.memIntegral = r.f64(f[9])
		d.lastT = sim.Time(r.i64(f[10]))
		nres := r.count(f, 11, 1<<24)
		if r.err != nil {
			break
		}
		// The residents, then the high-water marks (2 fields) and the
		// fault state (4 fields).
		rest := r.tail(12)
		if len(rest) != nres+6 {
			r.fail("dev %d: %d residents declared, %d fields present (want %d)", i, nres, len(rest), nres+6)
			break
		}
		d.maxRes = int(r.i64(rest[nres]))
		d.spillPeak = r.i64(rest[nres+1])
		d.failed = r.i64(rest[nres+2]) != 0
		d.downSince = sim.Time(r.i64(rest[nres+3]))
		d.down = sim.Duration(r.i64(rest[nres+4]))
		d.fails = int(r.i64(rest[nres+5]))
		if r.err == nil && (d.fails < 0 || d.down < 0) {
			return nil, fmt.Errorf("sched: snapshot: dev %d has negative fault counters", i)
		}
		rest = rest[:nres]
		for _, s := range rest {
			js, err := jobAt(r.i64(s), "resident list")
			if err != nil {
				return nil, err
			}
			in := false
			for _, g := range js.gang {
				if g == i {
					in = true
					break
				}
			}
			if !in {
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
	if r.err != nil {
		return nil, r.err
	}

	f = r.fields("pending", 2)
	npend := r.count(f, 1, 1<<24)
	if r.err != nil {
		return nil, r.err
	}
	rest := r.tail(2)
	if len(rest) != npend {
		return nil, fmt.Errorf("sched: snapshot: %d pending declared, %d present", npend, len(rest))
	}
	for _, s := range rest {
		js, err := jobAt(r.i64(s), "pending list")
		if err != nil {
			return nil, err
		}
		ex.enqueue(js)
	}

	f = r.fields("events", 2)
	nev := r.count(f, 1, 1<<24)
	if r.err != nil {
		return nil, r.err
	}
	for k := 0; k < nev && r.err == nil; k++ {
		f = r.fields("ev", 6)
		if r.err != nil {
			break
		}
		ev := event{
			at:    sim.Time(r.i64(f[1])),
			class: uint8(r.i64(f[2])),
			seq:   r.i64(f[3]),
			job:   int(r.i64(f[4])),
			dev:   int(r.i64(f[5])),
		}
		switch ev.class {
		case classArrival, classDone:
			if _, err := jobAt(int64(ev.job), "event"); err != nil {
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
	if r.err != nil {
		return nil, r.err
	}
	if line := r.next(); line != "end" {
		if r.err != nil {
			return nil, r.err
		}
		return nil, fmt.Errorf("sched: snapshot: want end marker, got %q", line)
	}
	if n := len(r.lines) - r.n; n > 0 {
		return nil, fmt.Errorf("sched: snapshot: %d records after the end marker", n)
	}
	// Reconstruct the device planners from the restored residents and
	// their demand records (a resident without a usable demand, from a
	// hand-crafted snapshot, surfaces here as an error, never a panic),
	// or in isolated mode the free-capacity summary. Both run after
	// every dev record is read, so the summary sees the failed flags.
	if err := ex.rebuildDerived(); err != nil {
		return nil, fmt.Errorf("sched: snapshot: %w", err)
	}
	// The event loop runs the admission pass only when its inputs
	// change, so it resumes correctly only from a state the pass has
	// settled — which is every state EncodeSnapshot writes.
	if !ex.atRest() {
		return nil, fmt.Errorf("sched: snapshot: admission pass not at rest (a pending job would be admitted or a victim preempted)")
	}
	return &Incremental{ex: ex, mark: mark}, nil
}

// fbits encodes a float exactly as its IEEE-754 bit pattern in hex.
func fbits(v float64) string {
	return "0x" + strconv.FormatUint(math.Float64bits(v), 16)
}

// qstr percent-encodes a string into a single whitespace-free field;
// the empty string becomes "-" (and a literal "-" is escaped so the
// two cannot collide).
func qstr(s string) string {
	if s == "" {
		return "-"
	}
	e := url.QueryEscape(s)
	if e == "-" {
		return "%2D"
	}
	return e
}

// intList renders ints comma-separated, "-" when empty.
func intList(v []int) string {
	if len(v) == 0 {
		return "-"
	}
	var b strings.Builder
	for i, x := range v {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(strconv.Itoa(x))
	}
	return b.String()
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// snapReader walks the snapshot's record lines with sticky error
// handling: every accessor records the first failure and returns a
// zero value, so the decode path stays linear and cannot panic on
// malformed input.
type snapReader struct {
	lines []string
	n     int // records consumed
	err   error
	cur   []string
}

func (r *snapReader) fail(format string, args ...any) {
	if r.err == nil {
		r.err = fmt.Errorf("sched: snapshot record %d: %s", r.n, fmt.Sprintf(format, args...))
	}
}

// next returns the next record, "" at the end (recorded as an error).
func (r *snapReader) next() string {
	if r.err != nil {
		return ""
	}
	if r.n == len(r.lines) {
		r.fail("unexpected end of snapshot")
		return ""
	}
	r.n++
	return r.lines[r.n-1]
}

// fields reads the next record, checks its keyword and that it has at
// least min fields, and returns them (also retained for tail).
func (r *snapReader) fields(keyword string, min int) []string {
	line := r.next()
	if r.err != nil {
		return nil
	}
	f := strings.Fields(line)
	if len(f) == 0 || f[0] != keyword {
		r.fail("want %q record, got %q", keyword, line)
		return nil
	}
	if len(f) < min {
		r.fail("%q record needs %d fields, got %d", keyword, min, len(f))
		return nil
	}
	r.cur = f
	return f
}

// fieldsOpt reads the next record like fields if its keyword matches;
// otherwise it leaves the record for the next reader and returns nil.
func (r *snapReader) fieldsOpt(keyword string, min int) []string {
	if r.err != nil || r.n == len(r.lines) || !strings.HasPrefix(r.lines[r.n], keyword+" ") {
		return nil
	}
	return r.fields(keyword, min)
}

// tail returns the current record's fields from position from on.
func (r *snapReader) tail(from int) []string {
	if r.err != nil || from >= len(r.cur) {
		return nil
	}
	return r.cur[from:]
}

// count parses field i of f as a count in [0, max].
func (r *snapReader) count(f []string, i, max int) int {
	if r.err != nil || i >= len(f) {
		return 0
	}
	n := r.i64(f[i])
	if n < 0 || n > int64(max) {
		r.fail("count %d out of range [0,%d]", n, max)
		return 0
	}
	return int(n)
}

func (r *snapReader) i64(s string) int64 {
	if r.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(s, 10, 64)
	if err != nil {
		r.fail("bad integer %q", s)
		return 0
	}
	return v
}

func (r *snapReader) u64(s string) uint64 {
	if r.err != nil {
		return 0
	}
	v, err := strconv.ParseUint(s, 10, 64)
	if err != nil {
		r.fail("bad unsigned integer %q", s)
		return 0
	}
	return v
}

func (r *snapReader) f64(s string) float64 {
	if r.err != nil {
		return 0
	}
	if !strings.HasPrefix(s, "0x") {
		r.fail("bad float bits %q", s)
		return 0
	}
	v, err := strconv.ParseUint(s[2:], 16, 64)
	if err != nil {
		r.fail("bad float bits %q", s)
		return 0
	}
	return math.Float64frombits(v)
}

func (r *snapReader) unquote(s string) string {
	if r.err != nil {
		return ""
	}
	if s == "-" {
		return ""
	}
	v, err := url.QueryUnescape(s)
	if err != nil {
		r.fail("bad encoded string %q", s)
		return ""
	}
	return v
}

// ints parses a comma-separated int list; "-" is empty.
func (r *snapReader) ints(s string) []int {
	if r.err != nil || s == "-" {
		return nil
	}
	parts := strings.Split(s, ",")
	out := make([]int, 0, len(parts))
	for _, p := range parts {
		v, err := strconv.Atoi(p)
		if err != nil {
			r.fail("bad int list entry %q", p)
			return nil
		}
		out = append(out, v)
	}
	return out
}

// iterBatches is the batch at each iteration-time position: the
// dynamic schedule, or the static batch alone.
func iterBatches(js *jobState) []int {
	if len(js.BatchSchedule) > 0 {
		return js.BatchSchedule
	}
	return []int{js.Batch}
}

// iterField renders the job's iteration times once per distinct batch,
// as "batch:time" pairs in first-appearance order ("-" for none):
// iterTimes[k] is always the time of the batch at position k.
func iterField(js *jobState) string {
	if len(js.iterTimes) == 0 {
		return "-"
	}
	var b strings.Builder
	seen := make(map[int]bool)
	for k, batch := range iterBatches(js) {
		if !seen[batch] {
			seen[batch] = true
			if b.Len() > 0 {
				b.WriteByte(',')
			}
			fmt.Fprintf(&b, "%d:%d", batch, int64(js.iterTimes[k]))
		}
	}
	return b.String()
}

// iterTimes rebuilds a job's per-position iteration times from its
// iterField; every batch of the schedule needs a time.
func (r *snapReader) iterTimes(js *jobState, s string) []sim.Duration {
	if r.err != nil || s == "-" {
		return nil
	}
	byBatch := make(map[int]sim.Duration)
	for _, p := range strings.Split(s, ",") {
		b, t, _ := strings.Cut(p, ":")
		byBatch[int(r.i64(b))] = sim.Duration(r.i64(t))
	}
	var times []sim.Duration
	for _, b := range iterBatches(js) {
		t, ok := byBatch[b]
		if !ok {
			r.fail("job %d: no iteration time for batch %d", js.seq, b)
			return nil
		}
		times = append(times, t)
	}
	return times
}
