package sched

import (
	"cmp"
	"slices"

	"repro/internal/core"
	"repro/internal/sim"
)

// Queued is the scheduler-visible view of a pending job, handed to a
// policy's queue order.
type Queued struct {
	Job
	// Index is the job's position in the input trace — the
	// deterministic tie-breaker of last resort.
	Index int
	// Estimate is the admission prediction.
	Estimate core.Estimate
	// Preemptions counts evictions suffered so far.
	Preemptions int
}

// Policy is a declarative scheduling policy: how the pending queue is
// ordered, whether jobs behind a blocked head may be admitted
// (backfill), how a device is chosen among those with room, and
// whether a blocked head may evict lower-priority residents.
type Policy struct {
	Name string
	// Less orders the pending queue (ties fall back to trace order).
	Less func(a, b Queued) bool
	// Backfill admits jobs past a blocked queue head.
	Backfill bool
	// BestFit places on the device with the least leftover memory;
	// otherwise the first device with room wins.
	BestFit bool
	// Preemptive lets a blocked head evict strictly lower-priority
	// residents at their next iteration boundary.
	Preemptive bool
	// TopoAware prefers gang placements whose members share an NVLink
	// island, then a node, before accepting a cross-node gang: the
	// slowest pairwise wire prices the gang's all-reduce, so locality
	// buys iteration time. Single-device jobs are unaffected.
	TopoAware bool
}

func byArrival(a, b Queued) bool { return a.Arrival < b.Arrival }

func byPriority(a, b Queued) bool {
	if a.Priority != b.Priority {
		return a.Priority > b.Priority
	}
	return a.Arrival < b.Arrival
}

// The built-in policies compared in the evaluation.
var (
	// FIFO admits strictly in arrival order onto the first device
	// with room: a blocked head blocks everything behind it.
	FIFO = Policy{Name: "fifo", Less: byArrival}

	// Priority admits in priority order and preempts: a blocked
	// high-priority head evicts the lowest-priority residents (at
	// their iteration boundary) until it fits.
	Priority = Policy{Name: "priority", Less: byPriority, Preemptive: true}

	// Packing is memory-aware: arrival order, but any pending job
	// that fits is admitted (backfill past a blocked head) onto the
	// device where it packs tightest.
	Packing = Policy{Name: "packing", Less: byArrival, Backfill: true, BestFit: true}

	// TopoPacking is Packing plus topology awareness: a gang lands on
	// the tightest NVLink island that holds it whole, then the
	// tightest node, and only then spans nodes — trading placement
	// flexibility for the fast tier's all-reduce.
	TopoPacking = Policy{Name: "topo", Less: byArrival, Backfill: true, BestFit: true, TopoAware: true}
)

// Policies lists the built-in policies in comparison order.
func Policies() []Policy { return []Policy{FIFO, Priority, Packing, TopoPacking} }

// PolicyNames lists the built-in policies' names in Policies order.
func PolicyNames() []string {
	var names []string
	for _, p := range Policies() {
		names = append(names, p.Name)
	}
	return names
}

// PolicyByName resolves a built-in policy.
func PolicyByName(name string) (Policy, bool) {
	for _, p := range Policies() {
		if p.Name == name {
			return p, true
		}
	}
	return Policy{}, false
}

func (p Policy) queued(js *jobState) Queued {
	return Queued{Job: js.Job, Index: js.seq, Estimate: js.est, Preemptions: js.preempts}
}

// less wraps the policy order with the trace-order tie-break so every
// sort is total and deterministic.
func (p Policy) less(a, b *jobState) bool {
	qa, qb := p.queued(a), p.queued(b)
	if p.Less(qa, qb) {
		return true
	}
	if p.Less(qb, qa) {
		return false
	}
	return a.seq < b.seq
}

// pickDevice returns the device to admit the job to, or -1. All fit
// and leftover questions route through the exec's headroom context —
// isolated arithmetic or the CrossJob device planner, transparently.
func (p Policy) pickDevice(js *jobState, e *exec) int {
	best, bestLeft := -1, int64(0)
	for di := range e.devs {
		left, ok := e.headroom(js, di)
		if !ok {
			continue
		}
		if !p.BestFit {
			return di
		}
		if best == -1 || left < bestLeft {
			best, bestLeft = di, left
		}
	}
	return best
}

// pickGang returns the devices (ascending) to admit the job's gang
// to, or nil when no placement fits right now. A single-device job
// reduces exactly to pickDevice; a gang needs GPUs distinct devices
// that each fit the per-device demand — the all-or-nothing rule. In
// isolated mode the free-capacity summary refuses a job that fits
// nowhere before any device is probed; every placement returns nil
// exactly when fewer than GPUs devices pass headroom, so the refusal
// is the answer the probes would give.
func (p Policy) pickGang(js *jobState, e *exec) []int {
	if !e.crossjob && !e.gangFits(max(js.GPUs, 1), js.est.PeakBytes) {
		return nil
	}
	if js.GPUs <= 1 {
		if di := p.pickDevice(js, e); di >= 0 {
			return []int{di}
		}
		return nil
	}
	var cands []int
	for di := range e.devs {
		if _, ok := e.headroom(js, di); ok {
			cands = append(cands, di)
		}
	}
	if len(cands) < js.GPUs {
		return nil
	}
	if p.TopoAware {
		if e.topo.NVLinkIsland > 0 {
			if g := p.pickGrouped(cands, js, e, e.topo.Island); g != nil {
				return g
			}
		}
		if g := p.pickGrouped(cands, js, e, e.topo.Node); g != nil {
			return g
		}
	}
	if !p.BestFit {
		return append([]int(nil), cands[:js.GPUs]...) // first fit
	}
	return bestFitGang(cands, js, e)
}

// pickGrouped tries to place the whole gang inside one locality group
// (an NVLink island or a node, named by key). Among groups with room
// for the full gang, the one with the fewest candidate devices wins —
// the tightest group, keeping larger contiguous blocks free for wider
// gangs — with the lower group key breaking ties. Returns nil when no
// single group holds the gang. Both keys are nondecreasing in device
// index, so each group's candidates are one contiguous run of the
// ascending cands, met in ascending key order.
func (p Policy) pickGrouped(cands []int, js *jobState, e *exec, key func(int) int) []int {
	n := js.GPUs
	var best []int
	for lo := 0; lo < len(cands); {
		hi, k := lo+1, key(cands[lo])
		for hi < len(cands) && key(cands[hi]) == k {
			hi++
		}
		if m := cands[lo:hi]; len(m) >= n && (best == nil || len(m) < len(best)) {
			best = m
		}
		lo = hi
	}
	if best == nil {
		return nil
	}
	if !p.BestFit {
		return append([]int(nil), best[:n]...)
	}
	return bestFitGang(best, js, e)
}

// bestFitGang picks the GPUs candidates with the least leftover memory
// (ties to the lower device index) and returns them ascending. Every
// candidate already passed the headroom probe, so the leftover lookup
// cannot miss.
func bestFitGang(cands []int, js *jobState, e *exec) []int {
	type fit struct {
		dev  int
		left int64
	}
	fits := make([]fit, len(cands))
	for i, di := range cands {
		l, _ := e.headroom(js, di)
		fits[i] = fit{di, l}
	}
	slices.SortFunc(fits, func(a, b fit) int {
		if c := cmp.Compare(a.left, b.left); c != 0 {
			return c
		}
		return a.dev - b.dev
	})
	picked := make([]int, js.GPUs)
	for i := range picked {
		picked[i] = fits[i].dev
	}
	slices.Sort(picked)
	return picked
}

// schedule is the admission pass over the queue, which enqueue keeps
// in policy order: admit what fits (honoring backfill), and let a
// preemptive policy evict for a blocked head. Invoked only when its
// inputs change — at an arrival, a device failure or recovery, and an
// iteration boundary that vacates a job (see iterDone).
func (p Policy) schedule(e *exec, now sim.Time) {
	for {
		q := e.pending
		i := 0
		for i < len(q) {
			js := q[i]
			gang := p.pickGang(js, e)
			if gang != nil {
				q = append(q[:i], q[i+1:]...)
				e.pending = q
				e.admit(js, gang, now)
				q = e.pending
				continue
			}
			if !p.Backfill {
				break
			}
			i++
		}
		e.pending = q
		if !p.Preemptive || len(q) == 0 {
			return
		}
		if !p.preempt(q[0], e, now) {
			return
		}
	}
}

// preempt tries to make room for the blocked head by evicting
// strictly lower-priority residents. It first finds, in index order,
// as many devices as the head's gang needs where the head would fit
// after evictions (topology preference does not apply under memory
// pressure — getting placed beats getting placed well); only when
// enough exist does it evict, so victims are never spent on a gang
// that cannot be placed anyway. Per device, victims are chosen lowest
// priority first (latest trace order first within a priority). A
// running victim vacates its whole gang at its next iteration
// boundary; an idle one immediately — and because a gang victim
// vacates every device it occupies at once, it disappears from later
// devices' resident lists before they are examined, so it is never
// evicted twice. Reports whether any reservation was released right
// now (in which case the caller re-runs the admission pass).
func (p Policy) preempt(head *jobState, e *exec, now sim.Time) bool {
	viable := e.evictable(head)
	if viable == nil {
		return false
	}
	freedNow := false
	for _, di := range viable {
		d := e.devs[di]
		cands := make([]*jobState, 0, len(d.resident))
		for _, r := range d.resident {
			if r.Priority < head.Priority {
				cands = append(cands, r)
			}
		}
		slices.SortStableFunc(cands, func(a, b *jobState) int {
			if c := cmp.Compare(a.Priority, b.Priority); c != 0 {
				return c
			}
			return b.seq - a.seq
		})
		// cands[:n] are the victims already treated as released for this
		// device's fit question — either marked for vacate at their
		// iteration boundary or vacated right here. In isolated mode room
		// is the head's free capacity once they are gone: each counted
		// victim releases its peak, now or at its boundary.
		n := 0
		counted := func(r *jobState) bool { return slices.Contains(cands[:n], r) }
		room := e.cap - d.used
		for _, v := range cands {
			if e.crossjob {
				if e.fitsWithout(head, di, counted) {
					break
				}
			} else if room >= head.est.PeakBytes {
				break
			}
			n++
			room += v.est.PeakBytes
			if v.marked {
				continue // already vacating
			}
			if v.running {
				v.marked = true
				if e.lgDbg {
					e.lg.Debug("preemption marked", "head", head.ID, "victim", v.ID,
						"device", di, "t", int64(now), "victim_priority", v.Priority,
						"head_priority", head.Priority)
				}
				continue
			}
			// Idle victim: vacate (the whole gang) and re-queue.
			v.preempts++
			e.vacate(v, now)
			v.device = -1
			e.enqueue(v)
			freedNow = true
			if e.lgInfo {
				e.lg.Info("job preempted", "head", head.ID, "victim", v.ID, "device", di,
					"gang", v.gang, "t", int64(now), "victim_priority", v.Priority,
					"head_priority", head.Priority, "cotenants", coResidents(d))
			}
		}
	}
	return freedNow
}

// evictable returns, ascending, the first devices in index order where
// the head's gang would fit with every strictly lower-priority resident
// evicted — as many as the gang needs — or nil when fewer exist. In
// isolated mode each device's test is O(1): the preemption summary
// holds the bytes its lower-priority residents would release. Under
// CrossJob each device's planner is probed.
func (e *exec) evictable(head *jobState) []int {
	want := max(head.GPUs, 1)
	k, _ := slices.BinarySearch(e.prio, head.Priority)
	lower := func(r *jobState) bool { return r.Priority < head.Priority }
	viable := make([]int, 0, want)
	for di, d := range e.devs {
		ok := false
		if e.crossjob {
			ok = e.fitsWithout(head, di, lower)
		} else {
			ok = !d.failed && e.cap-d.used+d.lower[k] >= head.est.PeakBytes
		}
		if ok {
			viable = append(viable, di)
			if len(viable) == want {
				return viable
			}
		}
	}
	return nil
}
