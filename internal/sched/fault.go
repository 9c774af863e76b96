package sched

import (
	"fmt"
	"sort"

	"repro/internal/dataparallel"
	"repro/internal/sim"
)

// The deterministic fault layer: a cluster may carry a FaultPlan of
// scripted device failures and recoveries. Fault events travel through
// the same (time, class, sequence) event queue as arrivals and
// iteration completions, so a faulted replay is exactly as
// deterministic — and as resumable — as a fault-free one: two runs of
// the same trace with the same plan produce byte-identical results,
// and a snapshot taken mid-outage restores and drains to the same
// bytes as the uninterrupted run.
//
// Failure semantics are checkpoint/restore at iteration boundaries.
// Every completed iteration is an implicit checkpoint (the job's live
// state — iteration index, batch-schedule position, accumulated
// counters — is exactly what the scheduler already tracks and
// snapshots); when a device fails, each resident job aborts its
// in-flight iteration (the partial work is lost and counted) and
// resumes from that checkpoint. A multi-device gang first attempts an
// elastic shrink to its surviving members — re-pricing its all-reduce
// over the surviving topology subset and re-probing the survivors'
// memplan membership — and only falls back to a full re-queue through
// admission when no member survives (or it was already marked for
// preemption). Single-device victims always re-queue. Recovery simply
// returns the device to placement; shrunk gangs do not re-grow.

// FaultEvent is one scripted change of a device's availability.
type FaultEvent struct {
	// At is the virtual instant the event takes effect. At equal
	// times, arrivals and iteration completions order before fault
	// events — a job checkpoints at an iteration boundary that
	// coincides with the failure instant.
	At sim.Time
	// Device is the target device index.
	Device int
	// Recover returns a failed device to service; false is a failure.
	// A device that fails and never recovers is permanently lost.
	Recover bool
}

// FaultPlan scripts a cluster's device failures and recoveries. The
// zero value is the historical always-healthy cluster.
type FaultPlan struct {
	Events []FaultEvent
}

// Empty reports whether the plan scripts no events.
func (p FaultPlan) Empty() bool { return len(p.Events) == 0 }

// Validate checks the plan against a cluster size: every event must
// target a valid device at a non-negative time, and each device's
// events, in time order, must alternate fail, recover, fail, … —
// a device cannot fail while down, recover while up, or do both at
// the same instant (the order would be ambiguous).
func (p FaultPlan) Validate(devices int) error {
	perDev := make(map[int][]int)
	for i, fe := range p.Events {
		if fe.Device < 0 || fe.Device >= devices {
			return fmt.Errorf("sched: fault event %d targets device %d of %d", i, fe.Device, devices)
		}
		if fe.At < 0 {
			return fmt.Errorf("sched: fault event %d at negative time %d", i, int64(fe.At))
		}
		perDev[fe.Device] = append(perDev[fe.Device], i)
	}
	devs := make([]int, 0, len(perDev))
	for d := range perDev {
		devs = append(devs, d)
	}
	sort.Ints(devs)
	for _, d := range devs {
		idx := perDev[d]
		sort.SliceStable(idx, func(a, b int) bool { return p.Events[idx[a]].At < p.Events[idx[b]].At })
		down := false
		for k, i := range idx {
			fe := p.Events[i]
			if k > 0 && fe.At == p.Events[idx[k-1]].At {
				return fmt.Errorf("sched: device %d has two fault events at time %d", d, int64(fe.At))
			}
			if fe.Recover && !down {
				return fmt.Errorf("sched: device %d recovers at %d without a preceding failure", d, int64(fe.At))
			}
			if !fe.Recover && down {
				return fmt.Errorf("sched: device %d fails at %d while already failed", d, int64(fe.At))
			}
			down = !fe.Recover
		}
	}
	return nil
}

// postFaults seeds the event queue with the cluster's fault plan: one
// classFault event per scripted fail/recover, sequenced by plan order
// (the event's job field carries the recover flag). Snapshot restore
// must not call this — a restored queue already holds the undelivered
// fault events.
func (e *exec) postFaults() {
	for i, fe := range e.cluster.Faults.Events {
		e.q.push(event{at: fe.At, class: classFault, seq: int64(i), job: b2i(fe.Recover), dev: fe.Device})
	}
}

// failDevice delivers a failure: the device leaves placement, every
// resident job restores from its last iteration-boundary checkpoint
// (gangs shrink elastically when they can, everything else re-enters
// admission), and under CrossJob the device planner's demand set is
// re-planned as the victims release it member by member.
func (e *exec) failDevice(di int, now sim.Time) {
	d := e.devs[di]
	if d.failed {
		// Unreachable for validated plans; tolerated for hand-crafted
		// snapshots, which may queue arbitrary fault events.
		return
	}
	// Leave the free-capacity summary while still healthy: the victims'
	// releases below then skip the device (hold).
	e.unlistFree(di)
	d.failed = true
	d.fails++
	d.downSince = now
	victims := append([]*jobState(nil), d.resident...)
	if e.lgInfo {
		e.lg.Info("device failed", "device", di, "t", int64(now), "victims", len(victims))
	}
	for _, js := range victims {
		e.failVictim(js, di, now)
	}
	// Re-admit what the failure displaced, then sweep every engine:
	// aborted iterations freed surviving devices whose other residents
	// (or shrunk gangs) can start immediately.
	e.schedule(now)
	for gi, gd := range e.devs {
		e.dispatch(gd, gi, now)
	}
}

// failVictim restores one resident of a failing device from its last
// iteration-boundary checkpoint: the in-flight iteration (if any) is
// aborted and charged as lost, then the job either shrinks its gang
// onto the surviving members or re-enters admission with its
// completed iterations, schedule position and counters intact.
func (e *exec) failVictim(js *jobState, di int, now sim.Time) {
	if js.running {
		// Abort the in-flight iteration: rewind every member engine to
		// the failure instant (the dispatch charged it through the
		// iteration's end) and invalidate the queued completion — its
		// sequence no longer matches liveDone, so it is ignored when it
		// fires.
		for _, g := range js.gang {
			gd := e.devs[g]
			gd.inflight = false
			gd.busy -= sim.Duration(gd.freeAt - now)
			gd.freeAt = now
		}
		js.running = false
		js.liveDone = -1
		js.lostIters++
	}
	js.restores++
	survivors := withoutDev(js.gang, di)
	if len(js.gang) > 1 && len(survivors) > 0 && !js.marked {
		e.shrinkGang(js, di, survivors, now)
		return
	}
	// Full re-queue: release every member still held and re-enter
	// admission. A victim already marked for preemption takes this
	// path too — the failure evicts it before the boundary did.
	js.marked = false
	e.vacate(js, now)
	js.device = -1
	e.enqueue(js)
	if e.lgInfo {
		e.lg.Info("job requeued after device failure", "job", js.ID, "device", di,
			"t", int64(now), "completed", js.Iterations-js.remaining, "remaining", js.remaining)
	}
}

// shrinkGang is the elastic path: the gang keeps its reservations on
// the surviving members, drops only the failed one, and re-prices its
// collective over the surviving topology subset — the same pricing
// rule admission used, applied to the smaller gang. A one-survivor
// gang becomes a plain single-device job (no collective at all).
func (e *exec) shrinkGang(js *jobState, failed int, survivors []int, now sim.Time) {
	e.vacateOne(js, failed, now)
	js.gang = survivors
	js.device = survivors[0]
	js.gangAR = dataparallel.PriceGang(e.topo, survivors, js.est.GradientBytes, dataparallel.DefaultBuckets)
	js.shrinks++
	if e.lgInfo {
		e.lg.Info("gang shrunk", "job", js.ID, "failed_device", failed, "gang", survivors,
			"t", int64(now), "all_reduce", int64(js.gangAR))
	}
}

// recoverDevice returns a failed device to service: it re-enters
// placement immediately (the admission pass runs at the recovery
// instant) and its downtime is charged to the device stats. Shrunk
// gangs do not re-grow onto it — elastic re-expansion is a documented
// non-goal (DESIGN.md §10).
func (e *exec) recoverDevice(di int, now sim.Time) {
	d := e.devs[di]
	if !d.failed {
		return // hand-crafted snapshots only; validated plans alternate
	}
	d.failed = false
	e.listFree(di)
	d.down += sim.Duration(now - d.downSince)
	d.downSince = 0
	if e.lgInfo {
		e.lg.Info("device recovered", "device", di, "t", int64(now), "down", int64(d.down))
	}
	e.schedule(now)
}

// withoutDev returns gang minus device di, preserving order.
func withoutDev(gang []int, di int) []int {
	out := make([]int, 0, len(gang))
	for _, g := range gang {
		if g != di {
			out = append(out, g)
		}
	}
	return out
}

func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}
