package memmgr

import (
	"fmt"

	"repro/internal/gpumem"
	"repro/internal/hw"
	"repro/internal/liveness"
	"repro/internal/program"
	"repro/internal/recompute"
	"repro/internal/sim"
	"repro/internal/tcache"
	"repro/internal/trace"
	"repro/internal/utp"
)

// TState is the runtime's mutable view of one tensor.
type TState struct {
	GPU  gpumem.Allocation
	Host gpumem.Allocation
	// HostPool indexes the external pool holding the host copy.
	HostPool int

	OnGPU  bool
	OnHost bool

	// Inflight gates GPU reads on a pending H2D copy.
	Inflight      sim.Event
	InflightValid bool

	// OffPending marks an issued D2H whose GPU copy is reclaimable
	// once the event completes and the forward read horizon passes.
	OffEv      sim.Event
	OffPending bool
}

// Runtime is the state every subsystem operates over: the simulated
// timeline and engines, the memory spaces of the Unified Tensor Pool,
// the planner outputs, per-tensor placement, and the accounting that
// lands in Result. It corresponds to the paper's runtime context; the
// policy lives in the subsystems NewComponents wires, not here.
type Runtime struct {
	Cfg   Config
	P     *program.Program
	Live  *liveness.Result
	RPlan *recompute.Plan
	UPlan *utp.Plan

	TL      *sim.Timeline
	Compute *sim.Engine
	H2D     *sim.Engine
	D2H     *sim.Engine

	GPU gpumem.Allocator
	// The Unified Tensor Pool's external memory spaces, filled in
	// order (local CPU DRAM first, then peers/remote per Fig. 7).
	Hosts     []*gpumem.Pool
	HostLinks []hw.LinkSpec
	HostNames []string

	Cache *tcache.Cache

	TS    []TState
	Owner []int // tensor ID -> producing node ID (-1 for gradients)

	ResBytes int64
	ResCount int

	SegReplayed []bool
	Persistent  gpumem.Allocation
	CurStep     int

	// DropAt[si] lists dropped-tensor IDs whose forward read horizon
	// ends at step si; PendingOff tracks issued offloads awaiting
	// harvest. Both keep the per-step work proportional to actual
	// events rather than the tensor count (ResNet-2500 has ~60k
	// tensors).
	DropAt     [][]int
	PendingOff []int

	Res *Result
}

// NewRuntime builds the shared state for one run. cfg must already be
// normalized (WithDefaults applied).
func NewRuntime(p *program.Program, cfg Config) *Runtime {
	rt := &Runtime{
		TL:  sim.NewTimeline(),
		Res: &Result{},
	}
	rt.Compute = rt.TL.NewEngine("compute")
	rt.H2D = rt.TL.NewEngine("h2d")
	rt.D2H = rt.TL.NewEngine("d2h")
	if cfg.UseMemPool {
		rt.GPU = gpumem.NewPool(cfg.PoolBytes, cfg.Device.PoolOp)
	} else {
		rt.GPU = gpumem.NewNative(cfg.PoolBytes, cfg.Device.CudaMalloc, cfg.Device.CudaFree)
	}
	rt.Hosts = []*gpumem.Pool{gpumem.NewPool(cfg.HostBytes, cfg.Device.PoolOp)}
	rt.HostLinks = []hw.LinkSpec{cfg.HostLink}
	rt.HostNames = []string{"cpu"}
	for _, ep := range cfg.ExternalPools {
		rt.Hosts = append(rt.Hosts, gpumem.NewPool(ep.Bytes, cfg.Device.PoolOp))
		rt.HostLinks = append(rt.HostLinks, ep.Link)
		rt.HostNames = append(rt.HostNames, ep.Name)
	}
	rt.bind(p, cfg)
	return rt
}

// bind derives the program- and knob-dependent state: the analyses and
// plans, the per-tensor placement table, and the planner-output
// indices. It is the shared tail of NewRuntime and Rebind.
func (rt *Runtime) bind(p *program.Program, cfg Config) {
	rt.Cfg = cfg
	rt.P = p
	rt.Live = liveness.Analyze(p)
	rt.TS = make([]TState, p.Reg.Len())
	rt.Owner = make([]int, p.Reg.Len())
	rt.RPlan = recompute.BuildPlan(p, cfg.Recompute)
	rt.UPlan = utp.BuildPlan(p, cfg.Offload, rt.RPlan)
	rt.SegReplayed = make([]bool, len(rt.RPlan.Segments))
	if cfg.TensorCache {
		rt.Cache = tcache.NewWithPolicy(cfg.CachePolicy)
	} else {
		rt.Cache = nil
	}
	for i := range rt.Owner {
		rt.Owner[i] = -1
	}
	for _, nd := range p.Net.Nodes {
		// With in-place sharing several nodes map to one tensor; the
		// true producer (first writer in creation order) owns it.
		if rt.Owner[p.Out[nd.ID].ID] == -1 {
			rt.Owner[p.Out[nd.ID].ID] = nd.ID
		}
	}
	rt.Res.Network, rt.Res.Batch = p.Net.Name, p.Net.Batch()
	rt.Res.BaselineBytes = p.BaselineBytes()
	rt.Res.LPeak, _ = p.LPeak()
	rt.Res.PersistentBytes = p.PersistentBytes

	// Size the per-iteration result buffers up front so steady-state
	// iterations append without growth reallocations: every iteration
	// records one StepProfile per step plus the SGD update, and (when
	// tracing) one compute span per step and at most one span per
	// transfer engine submission.
	if cap(rt.Res.Steps) < len(p.Steps)+1 {
		rt.Res.Steps = make([]StepProfile, 0, len(p.Steps)+1)
	}
	if cfg.CollectTrace && cap(rt.Res.Trace) < 3*len(p.Steps)+1 {
		rt.Res.Trace = make([]trace.Span, 0, 3*len(p.Steps)+1)
	}

	rt.PendingOff = nil
	rt.DropAt = make([][]int, len(p.Steps))
	for id := range rt.Owner {
		nd := rt.Owner[id]
		if nd < 0 || !rt.RPlan.Drop[nd] {
			continue
		}
		if last := rt.UPlan.LastFwdRead[id]; last >= 0 {
			rt.DropAt[last] = append(rt.DropAt[last], id)
		}
	}
}

// Rebind retargets the runtime at a new program (a new input shape)
// and possibly revised technique knobs at an iteration boundary, while
// keeping the timeline, engines and memory pools — so virtual time,
// pool fragmentation and transfer-engine history carry across the
// re-plan exactly as they would on a real device. Every functional
// tensor must already be freed (the iteration epilogue guarantees
// this); only the persistent allocation survives. Capacity fields of
// cfg (device, pool sizes) must not change across a Rebind.
func (rt *Runtime) Rebind(p *program.Program, cfg Config) error {
	if rt.ResBytes != 0 || rt.ResCount != 0 {
		return fmt.Errorf("memmgr: rebind with %d bytes / %d tensors still resident", rt.ResBytes, rt.ResCount)
	}
	// Pending offloads of the outgoing program must drain before the
	// tensor table is replaced: the host copies were freed with their
	// tensors, so an in-flight D2H targeting them is a bug upstream.
	for _, id := range rt.PendingOff {
		if rt.TS[id].OffPending {
			return fmt.Errorf("memmgr: rebind with offload of tensor %d still pending", id)
		}
	}
	rt.bind(p, cfg)
	return nil
}

// ResetIteration clears the per-iteration accounting so the reported
// numbers describe one steady-state iteration.
func (rt *Runtime) ResetIteration() {
	rt.Res.Steps = rt.Res.Steps[:0]
	rt.Res.OffloadBytes, rt.Res.PrefetchBytes = 0, 0
	rt.Res.FailedPrefetches = 0
	rt.Res.ExtraForwards = 0
	rt.Res.AllocCalls, rt.Res.FreeCalls, rt.Res.AllocTime = 0, 0, 0
	rt.Res.StallTime = 0
	rt.Res.PeakResident, rt.Res.PeakStep = 0, 0
	rt.Res.Trace = rt.Res.Trace[:0]
	for i := range rt.SegReplayed {
		rt.SegReplayed[i] = false
	}
	rt.PendingOff = rt.PendingOff[:0]
}

// HostAlloc reserves bytes in the first external pool with room,
// returning the allocation, the pool index and success.
func (rt *Runtime) HostAlloc(n int64) (gpumem.Allocation, int, bool) {
	for i, p := range rt.Hosts {
		if a, err := p.Alloc(n); err == nil {
			return a, i, true
		}
	}
	return gpumem.Allocation{}, 0, false
}

// Span records a timeline span when tracing is enabled.
func (rt *Runtime) Span(lane, name string, end sim.Event, dur sim.Duration) {
	if !rt.Cfg.CollectTrace {
		return
	}
	rt.Res.Trace = append(rt.Res.Trace, trace.Span{
		Lane: lane, Name: name,
		Start: end.At() - sim.Time(dur), End: end.At(),
	})
}

// SpanFor records a span named "verb subject". The name is built only
// when tracing is enabled, so an untraced run pays nothing for it.
func (rt *Runtime) SpanFor(lane, verb, subject string, end sim.Event, dur sim.Duration) {
	if rt.Cfg.CollectTrace {
		rt.Span(lane, verb+" "+subject, end, dur)
	}
}

// ChargeAlloc advances virtual time by one allocator call and counts
// it.
func (rt *Runtime) ChargeAlloc() {
	rt.TL.Advance(rt.GPU.AllocCost())
	rt.Res.AllocCalls++
	rt.Res.AllocTime += rt.GPU.AllocCost()
}

// ChargeFree advances virtual time by one free call and counts it.
func (rt *Runtime) ChargeFree() {
	rt.TL.Advance(rt.GPU.FreeCost())
	rt.Res.FreeCalls++
	rt.Res.AllocTime += rt.GPU.FreeCost()
}
