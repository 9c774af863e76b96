// Package core is the SuperNeurons runtime: it executes the tensor
// program of one training iteration on the simulated GPU. One run
// state (runState) holds the tensor table, the timeline and the memory
// pools, and its methods are the paper's runtime (§3, Alg. 2) —
// Liveness Analysis, the Unified Tensor Pool's offload engine and
// Tensor Cache, Cost-Aware Recomputation and the dynamic convolution
// workspace — driven by one step loop.
//
// A run executes exactly the Config it is given. The named memory
// managers ("superneurons", "vdnn", "naive" and the framework models)
// are donor Configs that ManagerConfig returns; the ablation studies
// toggle individual mechanisms on a bare Config instead. Every run
// executes the same mechanisms, so every capacity and speed comparison
// in the evaluation, including the competing frameworks' models
// (internal/policy), isolates exactly the policy difference.
package core

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/gpumem"
	"repro/internal/nnet"
	"repro/internal/sim"
)

// ErrOutOfMemory reports that the configuration cannot train the
// network on the device; capacity searches rely on it.
var ErrOutOfMemory = gpumem.ErrOutOfMemory

// Run simulates cfg.Iterations training iterations of net and returns
// the profile of the last one, its step profiles included. The run
// draws its buffers from a pooled arena and gives them back when it
// returns; the Result never points into them.
func Run(net *nnet.Net, cfg Config) (*Result, error) {
	a := arenas.Get().(*runArena)
	defer arenas.Put(a)
	return a.run(net, cfg)
}

// Measure is Run for callers that read no step profile: it runs
// exactly what Run runs and returns the same Result with Steps nil.
// It skips only the copy-out of the step profiles and the rendering of
// their labels, so a capacity probe allocates nothing per step or per
// layer.
func Measure(net *nnet.Net, cfg Config) (*Result, error) {
	a := arenas.Get().(*runArena)
	defer arenas.Put(a)
	rt, err := a.measure(net, cfg)
	if err != nil {
		return nil, err
	}
	return rt.res, nil
}

// run is Run in arena a: the measured run plus the copy-out of its
// last iteration's step profiles.
func (a *runArena) run(net *nnet.Net, cfg Config) (*Result, error) {
	rt, err := a.measure(net, cfg)
	if err != nil {
		return nil, err
	}
	rt.res.Steps = rt.copySteps()
	return rt.res, nil
}

// measure lowers net into arena a and runs it under cfg.
func (a *runArena) measure(net *nnet.Net, cfg Config) (*runState, error) {
	cfg = cfg.withDefaults()
	rt := newRunState(a, a.lower(net, cfg), cfg)
	if err := rt.run(); err != nil {
		return nil, fmt.Errorf("core: %s batch %d: %w", net.Name, net.Batch(), err)
	}
	return rt, nil
}

// run allocates the persistent state, which lives on the GPU for the
// whole run, and executes every iteration.
func (rt *runState) run() error {
	if err := rt.ensurePersistent(); err != nil {
		return err
	}
	for it := 0; it < rt.cfg.Iterations; it++ {
		if err := rt.runIteration(); err != nil {
			return err
		}
	}
	return nil
}

// copySteps copies the last iteration's step profiles out of the arena
// and renders the labels of the program's steps, which the step loop
// leaves empty, into one buffer shared by the copies.
func (rt *runState) copySteps() []StepProfile {
	steps := slices.Clone(rt.steps)
	n := 0
	for i := range steps {
		if si := steps[i].Index; si < len(rt.p.Steps) {
			n += len(rt.p.Steps[si].Node.Name()) + len(" fwd")
		}
	}
	var labels strings.Builder
	labels.Grow(n)
	for i := range steps {
		si := steps[i].Index
		if si >= len(rt.p.Steps) {
			continue // the SGD update, labelled by runUpdate
		}
		st := &rt.p.Steps[si]
		from := labels.Len()
		labels.WriteString(st.Node.Name())
		labels.WriteByte(' ')
		labels.WriteString(st.Phase.String())
		steps[i].Label = labels.String()[from:]
	}
	return steps
}

func (rt *runState) runIteration() error {
	rt.resetIteration()
	start := rt.tl.Now()

	for si := range rt.p.Steps {
		if err := rt.runStep(si); err != nil {
			return err
		}
	}
	if rt.cfg.SGDUpdate {
		rt.runUpdate()
	}

	// Iteration epilogue: without Liveness Analysis nothing was freed
	// mid-iteration (the naive baseline); reclaim everything now. With
	// it, only stragglers with pending transfers remain.
	for id := range rt.ts {
		rt.freeAll(rt.p.Reg.Get(id))
	}
	if rt.resBytes != 0 || rt.resCount != 0 {
		return fmt.Errorf("internal accounting drift: %d bytes / %d tensors leak", rt.resBytes, rt.resCount)
	}

	res := rt.res
	res.IterTime = sim.Duration(rt.tl.Now() - start)
	if res.IterTime > 0 {
		res.Throughput = float64(rt.p.Net.Batch()) / res.IterTime.Seconds()
	}
	res.PoolPeak = rt.gpu.Peak()
	res.ComputeBusy = rt.compute.BusyTime()
	res.H2DBusy = rt.h2d.BusyTime()
	res.D2HBusy = rt.d2h.BusyTime()
	if rt.cache != nil {
		cs := rt.cache.Stats()
		res.CacheHits, res.CacheMisses, res.Evictions = cs.Hits, cs.Misses, cs.Evictions
	}
	return nil
}
