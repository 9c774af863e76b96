package core

import (
	"fmt"
	"slices"

	"repro/internal/gpumem"
	"repro/internal/hw"
	"repro/internal/liveness"
	"repro/internal/program"
	"repro/internal/recompute"
	"repro/internal/sim"
	"repro/internal/tcache"
	"repro/internal/tensor"
	"repro/internal/trace"
	"repro/internal/utp"
)

// tstate is the runtime's mutable view of one tensor.
type tstate struct {
	gpu  gpumem.Allocation
	host gpumem.Allocation
	// hostPool indexes the external pool holding the host copy.
	hostPool int

	onGPU  bool
	onHost bool

	// inflight gates GPU reads on a pending H2D copy.
	inflight      sim.Event
	inflightValid bool

	// offPending marks an issued D2H whose GPU copy is reclaimable
	// once offEv completes and the forward read horizon passes.
	offEv      sim.Event
	offPending bool
}

// runState is one run of the executor: the simulated timeline and
// engines, the memory spaces of the Unified Tensor Pool, the planner
// outputs, per-tensor placement, the accounting that lands in Result,
// and the scratch buffers of the step loop. It corresponds to the
// paper's runtime context. Its methods are the runtime's mechanisms —
// residency (residency.go), the offload engine (offload.go),
// recomputation replays (replay.go) and the step loop with its
// workspace selection (step.go) — and cfg's technique flags decide
// which engage.
type runState struct {
	// a holds the run's reusable buffers; ts, owner, segReplayed,
	// dropAt, the pools and the analyses below live in it.
	a *runArena

	cfg   Config
	p     *program.Program
	live  *liveness.Result
	rplan *recompute.Plan
	uplan *utp.Plan

	tl      sim.Timeline
	compute sim.Engine
	h2d     sim.Engine
	d2h     sim.Engine

	gpu gpumem.Allocator
	// The Unified Tensor Pool's external memory spaces, filled in
	// order (local CPU DRAM first, then peers/remote per Fig. 7).
	hosts     []*gpumem.Pool
	hostLinks []hw.LinkSpec

	cache *tcache.Cache

	ts    []tstate
	owner []int // tensor ID -> producing node ID (-1 for gradients)

	resBytes int64
	resCount int

	segReplayed []bool
	curStep     int

	// persistent holds parameters, their gradients, auxiliary state
	// and (with SGDUpdate) the momentum; persistentBytes is the size
	// it was requested at, 0 when nothing is allocated.
	persistent      gpumem.Allocation
	persistentBytes int64

	// dropAt[si] lists dropped-tensor IDs whose forward read horizon
	// ends at step si; pendingOff tracks issued offloads awaiting
	// harvest. Both keep the per-step work proportional to actual
	// events rather than the tensor count (ResNet-2500 has ~60k
	// tensors).
	dropAt     [][]int
	pendingOff []int

	res *Result
	// steps holds the current iteration's step profiles in the arena,
	// with empty labels; Run copies the last iteration's into
	// res.Steps and renders their labels (copySteps).
	steps []StepProfile

	// Scratch reused across steps so the hot loop does not allocate.
	// deps holds the transfer events a kernel waits on; it is consumed
	// (Engine.Submit copies the values out) before the next fill.
	// needs and freeAfter are replayFor's per-step working set.
	deps      []sim.Event
	needs     []segNeed
	freeAfter []*tensor.Tensor
}

// newRunState builds the state for one run in arena a, resetting its
// pools. cfg must already be normalized.
func newRunState(a *runArena, p *program.Program, cfg Config) *runState {
	rt := &runState{
		a:   a,
		res: &Result{},
	}
	if cfg.UseMemPool {
		a.gpu.Reset(cfg.PoolBytes, cfg.Device.PoolOp)
		rt.gpu = &a.gpu
	} else {
		rt.gpu = gpumem.NewNative(cfg.PoolBytes, cfg.Device.CudaMalloc, cfg.Device.CudaFree)
	}
	rt.hostLinks = []hw.LinkSpec{cfg.HostLink}
	for _, ep := range cfg.ExternalPools {
		rt.hostLinks = append(rt.hostLinks, ep.Link)
	}
	for len(a.hosts) < len(rt.hostLinks) {
		a.hosts = append(a.hosts, new(gpumem.Pool))
	}
	rt.hosts = a.hosts[:len(rt.hostLinks)]
	rt.hosts[0].Reset(cfg.HostBytes, cfg.Device.PoolOp)
	for i, ep := range cfg.ExternalPools {
		rt.hosts[i+1].Reset(ep.Bytes, cfg.Device.PoolOp)
	}
	rt.bind(p, cfg)
	return rt
}

// bind derives the program- and knob-dependent state: the analyses and
// plans, the per-tensor placement table, the planner-output indices,
// and empty scratch, all in the run's arena. It is the shared tail of
// newRunState and rebind.
func (rt *runState) bind(p *program.Program, cfg Config) {
	a := rt.a
	n := p.Reg.Len()
	rt.cfg = cfg
	rt.p = p
	rt.live = liveness.AnalyzeInto(&a.live, p)
	a.ts = slices.Grow(a.ts[:0], n)[:n]
	clear(a.ts)
	a.owner = slices.Grow(a.owner[:0], n)[:n]
	rt.ts, rt.owner = a.ts, a.owner
	rt.rplan = recompute.BuildPlanInto(&a.rplan, p, cfg.Recompute)
	rt.uplan = utp.BuildPlanInto(&a.uplan, p, cfg.Offload, rt.rplan)
	a.segReplayed = slices.Grow(a.segReplayed[:0], len(rt.rplan.Segments))[:len(rt.rplan.Segments)]
	clear(a.segReplayed)
	rt.segReplayed = a.segReplayed
	if cfg.TensorCache {
		a.cache.Reset()
		rt.cache = &a.cache
	} else {
		rt.cache = nil
	}
	for i := range rt.owner {
		rt.owner[i] = -1
	}
	for _, nd := range p.Net.Nodes {
		// With in-place sharing several nodes map to one tensor; the
		// true producer (first writer in creation order) owns it.
		if rt.owner[p.Out[nd.ID].ID] == -1 {
			rt.owner[p.Out[nd.ID].ID] = nd.ID
		}
	}
	rt.res.Network, rt.res.Batch = p.Net.Name, p.Net.Batch()
	rt.res.BaselineBytes = p.BaselineBytes()
	rt.res.LPeak, _ = p.LPeak()
	rt.res.PersistentBytes = p.PersistentBytes
	if cfg.SGDUpdate {
		// The momentum buffer: one value per parameter.
		rt.res.PersistentBytes += p.Net.ParamBytes()
	}

	// Size the per-iteration buffers up front so steady-state
	// iterations append without growth reallocations: every iteration
	// records one StepProfile per step plus the SGD update, and (when
	// tracing) one compute span per step and at most one span per
	// transfer engine submission.
	a.steps = slices.Grow(a.steps[:0], len(p.Steps)+1)
	rt.steps = a.steps
	if cfg.CollectTrace && cap(rt.res.Trace) < 3*len(p.Steps)+1 {
		rt.res.Trace = make([]trace.Span, 0, 3*len(p.Steps)+1)
	}

	rt.pendingOff = nil
	a.dropAt = slices.Grow(a.dropAt[:0], len(p.Steps))[:len(p.Steps)]
	for i := range a.dropAt {
		a.dropAt[i] = a.dropAt[i][:0]
	}
	rt.dropAt = a.dropAt
	for id := range rt.owner {
		nd := rt.owner[id]
		if nd < 0 || !rt.rplan.Drop[nd] {
			continue
		}
		if last := rt.uplan.LastFwdRead[id]; last >= 0 {
			rt.dropAt[last] = append(rt.dropAt[last], id)
		}
	}

	rt.deps, rt.needs, rt.freeAfter = rt.deps[:0], rt.needs[:0], rt.freeAfter[:0]
}

// rebind retargets the run at a new program (a new input shape) and
// possibly revised technique knobs at an iteration boundary, while
// keeping the timeline, engines and memory pools — so virtual time,
// pool fragmentation and transfer-engine history carry across the
// re-plan exactly as they would on a real device. Every functional
// tensor must already be freed (the iteration epilogue guarantees
// this); only the persistent allocation survives. Capacity fields of
// cfg (device, pool sizes) must not change across a rebind.
func (rt *runState) rebind(p *program.Program, cfg Config) error {
	if rt.resBytes != 0 || rt.resCount != 0 {
		return fmt.Errorf("rebind with %d bytes / %d tensors still resident", rt.resBytes, rt.resCount)
	}
	// Pending offloads of the outgoing program must drain before the
	// tensor table is replaced: the host copies were freed with their
	// tensors, so an in-flight D2H targeting them is a bug upstream.
	for _, id := range rt.pendingOff {
		if rt.ts[id].offPending {
			return fmt.Errorf("rebind with offload of tensor %d still pending", id)
		}
	}
	rt.bind(p, cfg)
	return nil
}

// ensurePersistent sizes the persistent allocation to the bound
// program's needs (Result.PersistentBytes). Auxiliary state scales
// with the batch, so a shape change at an iteration boundary resizes
// it.
func (rt *runState) ensurePersistent() error {
	want := rt.res.PersistentBytes
	if rt.persistentBytes == want {
		return nil
	}
	if rt.persistentBytes > 0 {
		if err := rt.gpu.Free(rt.persistent.ID); err != nil {
			return err
		}
		rt.persistent, rt.persistentBytes = gpumem.Allocation{}, 0
	}
	if want > 0 {
		a, err := rt.gpu.Alloc(want)
		if err != nil {
			return fmt.Errorf("allocating persistent state: %w", err)
		}
		rt.persistent, rt.persistentBytes = a, want
	}
	return nil
}

// resetIteration clears the per-iteration accounting so the reported
// numbers describe one steady-state iteration.
func (rt *runState) resetIteration() {
	rt.steps = rt.steps[:0]
	rt.res.OffloadBytes, rt.res.PrefetchBytes = 0, 0
	rt.res.FailedPrefetches = 0
	rt.res.ExtraForwards = 0
	rt.res.AllocCalls, rt.res.FreeCalls, rt.res.AllocTime = 0, 0, 0
	rt.res.StallTime = 0
	rt.res.PeakResident, rt.res.PeakStep = 0, 0
	rt.res.Trace = rt.res.Trace[:0]
	for i := range rt.segReplayed {
		rt.segReplayed[i] = false
	}
	rt.pendingOff = rt.pendingOff[:0]
}

// hostAlloc reserves bytes in the first external pool with room,
// returning the allocation, the pool index and success.
func (rt *runState) hostAlloc(n int64) (gpumem.Allocation, int, bool) {
	for i, p := range rt.hosts {
		if a, err := p.Alloc(n); err == nil {
			return a, i, true
		}
	}
	return gpumem.Allocation{}, 0, false
}

// span records a timeline span when tracing is enabled.
func (rt *runState) span(lane, name string, end sim.Event, dur sim.Duration) {
	if !rt.cfg.CollectTrace {
		return
	}
	rt.res.Trace = append(rt.res.Trace, trace.Span{
		Lane: lane, Name: name,
		Start: end.At() - sim.Time(dur), End: end.At(),
	})
}

// spanFor records a span named "verb subject" followed by suffix
// (e.g. "replay conv1", or "fetch conv1" and ".y"). The name is built
// only when tracing is enabled, so an untraced run pays nothing for
// it.
func (rt *runState) spanFor(lane, verb, subject, suffix string, end sim.Event, dur sim.Duration) {
	if rt.cfg.CollectTrace {
		rt.span(lane, verb+" "+subject+suffix, end, dur)
	}
}

// chargeAlloc advances virtual time by one allocator call and counts
// it.
func (rt *runState) chargeAlloc() {
	rt.tl.Advance(rt.gpu.AllocCost())
	rt.res.AllocCalls++
	rt.res.AllocTime += rt.gpu.AllocCost()
}

// chargeFree advances virtual time by one free call and counts it.
func (rt *runState) chargeFree() {
	rt.tl.Advance(rt.gpu.FreeCost())
	rt.res.FreeCalls++
	rt.res.AllocTime += rt.gpu.FreeCost()
}
