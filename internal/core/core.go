package core

import (
	"fmt"

	"repro/internal/gpumem"
	"repro/internal/memmgr"
	"repro/internal/nnet"
	"repro/internal/program"
	"repro/internal/sim"
)

// ErrOutOfMemory reports that the configuration cannot train the
// network on the device; capacity searches rely on it.
var ErrOutOfMemory = gpumem.ErrOutOfMemory

// Result and StepProfile moved to internal/memmgr with the
// memory-manager extraction (the Runtime owns the profile it fills
// in); the aliases keep core's Run signature self-contained for the
// packages and examples built on top of it.
type (
	// Result aggregates one run.
	Result = memmgr.Result
	// StepProfile records the memory state after one step executed —
	// the data behind the paper's Fig. 10 step-wise curves and
	// Fig. 12 workspace bars.
	StepProfile = memmgr.StepProfile
)

// Run simulates cfg.Iterations training iterations of net and returns
// the profile of the last one.
func Run(net *nnet.Net, cfg Config) (*Result, error) {
	cfg, err := memmgr.Normalize(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %s batch %d: %w", net.Name, net.Batch(), err)
	}
	p := program.BuildWith(net, program.Options{InPlaceAct: cfg.InPlaceAct})
	e := newExec(p, cfg)
	if err := e.run(); err != nil {
		return nil, fmt.Errorf("core: %s batch %d: %w", net.Name, net.Batch(), err)
	}
	return e.rt.Res, nil
}

// exec orchestrates one run: it owns the step loop and delegates every
// memory-management decision to the memmgr subsystems. The
// normalized configuration lives in rt.Cfg, shared with the
// subsystems.
type exec struct {
	rt *memmgr.Runtime
	mm memmgr.Components
}

func newExec(p *program.Program, cfg Config) *exec {
	rt := memmgr.NewRuntime(p, cfg)
	return &exec{rt: rt, mm: memmgr.NewComponents(rt)}
}

func (e *exec) run() error {
	rt := e.rt
	// Parameters, parameter gradients and auxiliary state live on the
	// GPU for the whole run.
	if rt.P.PersistentBytes > 0 {
		a, err := rt.GPU.Alloc(rt.P.PersistentBytes)
		if err != nil {
			return fmt.Errorf("allocating persistent state: %w", err)
		}
		rt.Persistent = a
	}
	for it := 0; it < rt.Cfg.Iterations; it++ {
		if err := e.runIteration(); err != nil {
			return err
		}
	}
	return nil
}

func (e *exec) runIteration() error {
	rt := e.rt
	rt.ResetIteration()
	start := rt.TL.Now()

	for si := range rt.P.Steps {
		if err := e.runStep(si); err != nil {
			return err
		}
	}
	if rt.Cfg.SGDUpdate {
		e.runUpdate()
	}

	// Iteration epilogue: without Liveness Analysis nothing was freed
	// mid-iteration (the naive baseline); reclaim everything now. With
	// it, only stragglers with pending transfers remain.
	for id := range rt.TS {
		e.mm.Residency.FreeAll(rt.P.Reg.Get(id))
	}
	if rt.ResBytes != 0 || rt.ResCount != 0 {
		return fmt.Errorf("internal accounting drift: %d bytes / %d tensors leak", rt.ResBytes, rt.ResCount)
	}

	res := rt.Res
	res.IterTime = sim.Duration(rt.TL.Now() - start)
	if res.IterTime > 0 {
		res.Throughput = float64(rt.P.Net.Batch()) / res.IterTime.Seconds()
	}
	res.PoolPeak = rt.GPU.Peak()
	res.ComputeBusy = rt.Compute.BusyTime()
	res.H2DBusy = rt.H2D.BusyTime()
	res.D2HBusy = rt.D2H.BusyTime()
	if rt.Cache != nil {
		cs := rt.Cache.Stats()
		res.CacheHits, res.CacheMisses, res.Evictions = cs.Hits, cs.Misses, cs.Evictions
	}
	return nil
}
