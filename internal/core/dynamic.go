package core

// The dynamic run loop: training workloads whose input shape changes
// between iterations (bucketed sequence lengths, batch ramps, mixed
// request streams). The static Run path computes one plan before
// iteration 0 and replays it verbatim; here the program is rebuilt for
// the incoming shape at every iteration boundary, and — with
// Config.AdaptivePlan — a memmgr.Adaptive planner revises the
// offload/prefetch/recompute knobs online from the previous
// iterations' measured signals instead of trusting the one-shot static
// plan. The timeline, engines and memory pools persist across
// re-plans, so virtual time and pool fragmentation carry over exactly
// as they would on a real device.
//
// An iteration that cannot fit under the current plan fails with OOM;
// the failure is recorded (lost work, not a dead job), all state is
// reclaimed, and the run continues with the next iteration — under the
// adaptive planner, with a wider plan.

import (
	"errors"
	"fmt"

	"repro/internal/gpumem"
	"repro/internal/memmgr"
	"repro/internal/nnet"
	"repro/internal/program"
	"repro/internal/recompute"
	"repro/internal/sim"
	"repro/internal/utp"
	"repro/internal/workload"
)

// IterationProfile records one iteration of a dynamic run: the shape
// and plan in force, the outcome, and the measured signals the
// adaptive planner consumed at the following boundary.
type IterationProfile struct {
	Index int
	Batch int

	// The plan knobs in force for this iteration; Replanned marks that
	// the adaptive planner revised them at the preceding boundary.
	Offload   utp.Mode
	Prefetch  bool
	Recompute recompute.Strategy
	Replanned bool

	// OOM reports the iteration failed under the plan (counted, state
	// reclaimed, run continued).
	OOM bool

	IterTime  sim.Duration
	StallTime sim.Duration
	// PoolPeak is this iteration's pool high-water mark (peak tracking
	// is reset at each iteration start); Fragmentation the pool state
	// after the iteration.
	PoolPeak      int64
	Fragmentation float64

	CacheHits        int64
	CacheMisses      int64
	FailedPrefetches int64
	OffloadBytes     int64
	PrefetchBytes    int64
}

// DynamicResult aggregates a dynamic run.
type DynamicResult struct {
	Network  string
	Manager  string
	Adaptive bool
	Schedule []int

	Iters []IterationProfile

	// TotalTime is the end-to-end virtual time including failed
	// iterations; TotalStall sums the per-iteration stalls.
	TotalTime  sim.Duration
	TotalStall sim.Duration
	// OOMFailures counts iterations lost to OOM under the plan in
	// force; Replans counts adaptive plan revisions.
	OOMFailures int
	Replans     int
	// Images counts successfully trained samples; Throughput is
	// Images over TotalTime.
	Images     int64
	Throughput float64
}

// RunDynamic simulates a dynamic-shape training run: iteration i runs
// at cfg.BatchSchedule[i mod len] (at least len(BatchSchedule)
// iterations; more when cfg.Iterations asks, cycling the schedule).
// build constructs the network at a given batch size — nnet.ByName
// provides one for every registered architecture.
func RunDynamic(build func(int) *nnet.Net, cfg Config) (*DynamicResult, error) {
	cfg, err := memmgr.Normalize(cfg)
	if err != nil {
		return nil, fmt.Errorf("core: %w", err)
	}
	sched := workload.Schedule(cfg.BatchSchedule)
	if err := sched.Validate(); err != nil {
		return nil, fmt.Errorf("core: dynamic run: %w", err)
	}
	iters := cfg.Iterations
	if iters < len(sched) {
		iters = len(sched)
	}

	var adaptive *memmgr.Adaptive
	knobs := cfg
	if cfg.AdaptivePlan {
		adaptive = memmgr.NewAdaptive(cfg)
		knobs = adaptive.Config()
	}

	res := &DynamicResult{
		Manager:  cfg.Manager,
		Adaptive: cfg.AdaptivePlan,
		Schedule: append([]int(nil), sched...),
	}

	var (
		rt           *memmgr.Runtime
		e            *exec
		curBatch     = -1
		rebindNeeded bool
		persistent   int64
		cacheBase    [2]int64 // hits, misses at the last (re)bind
	)

	for it := 0; it < iters; it++ {
		batch := sched.At(it)
		replanned := false
		switch {
		case rt == nil:
			net := build(batch)
			p := program.BuildWith(net, program.Options{InPlaceAct: knobs.InPlaceAct})
			e = newExec(p, knobs)
			rt = e.rt
			res.Network = net.Name
			curBatch = batch
		case batch != curBatch || rebindNeeded:
			net := build(batch)
			p := program.BuildWith(net, program.Options{InPlaceAct: knobs.InPlaceAct})
			if err := rt.Rebind(p, knobs); err != nil {
				return nil, fmt.Errorf("core: %s iteration %d: %w", res.Network, it, err)
			}
			// Fresh subsystems: the autotune cache and the replayer
			// scratch belong to the outgoing program.
			e.mm = memmgr.NewComponents(rt)
			cacheBase = [2]int64{}
			replanned = rebindNeeded
			curBatch = batch
		}
		rebindNeeded = false

		prof := IterationProfile{
			Index: it, Batch: batch,
			Offload: knobs.Offload, Prefetch: knobs.Prefetch, Recompute: knobs.Recompute,
			Replanned: replanned,
		}

		start := rt.TL.Now()
		if p, ok := rt.GPU.(interface{ ResetPeak() }); ok {
			p.ResetPeak()
		}
		// Reset the per-iteration counters up front: if the persistent
		// resize OOMs below, runIteration (which normally resets them)
		// never runs, and the profile must not report the previous
		// iteration's stalls and traffic.
		rt.ResetIteration()
		iterErr := e.ensurePersistent(&persistent)
		if iterErr == nil {
			iterErr = e.runIteration()
		}
		if iterErr != nil {
			if !errors.Is(iterErr, ErrOutOfMemory) {
				return nil, fmt.Errorf("core: %s batch %d iteration %d: %w", res.Network, batch, it, iterErr)
			}
			prof.OOM = true
			res.OOMFailures++
			if err := e.abortIteration(); err != nil {
				return nil, fmt.Errorf("core: %s iteration %d: %w", res.Network, it, err)
			}
		}

		prof.IterTime = sim.Duration(rt.TL.Now() - start)
		prof.StallTime = rt.Res.StallTime
		prof.PoolPeak = rt.GPU.Peak()
		if f, ok := rt.GPU.(interface{ Fragmentation() float64 }); ok {
			prof.Fragmentation = f.Fragmentation()
		}
		if rt.Cache != nil {
			cs := rt.Cache.Stats()
			prof.CacheHits = cs.Hits - cacheBase[0]
			prof.CacheMisses = cs.Misses - cacheBase[1]
			cacheBase = [2]int64{cs.Hits, cs.Misses}
		}
		prof.FailedPrefetches = rt.Res.FailedPrefetches
		prof.OffloadBytes, prof.PrefetchBytes = rt.Res.OffloadBytes, rt.Res.PrefetchBytes

		if !prof.OOM {
			res.Images += int64(batch)
		}
		res.TotalStall += prof.StallTime
		res.Iters = append(res.Iters, prof)

		if adaptive != nil && it+1 < iters {
			sig := memmgr.Signals{
				Iteration: it, Batch: batch, NextBatch: sched.At(it + 1),
				OOM:      prof.OOM,
				IterTime: prof.IterTime, StallTime: prof.StallTime,
				PoolPeak: prof.PoolPeak, PoolBytes: knobs.PoolBytes,
				Fragmentation:    prof.Fragmentation,
				CacheHits:        prof.CacheHits,
				CacheMisses:      prof.CacheMisses,
				FailedPrefetches: prof.FailedPrefetches,
			}
			if adaptive.Observe(sig) {
				knobs = adaptive.Config()
				rebindNeeded = true
			}
		}
	}

	if adaptive != nil {
		res.Replans = adaptive.Replans()
	}
	res.TotalTime = sim.Duration(rt.TL.Now())
	if res.TotalTime > 0 {
		res.Throughput = float64(res.Images) / res.TotalTime.Seconds()
	}
	return res, nil
}

// ensurePersistent sizes the persistent allocation (parameters,
// parameter gradients, auxiliary state) to the bound program's needs.
// Auxiliary state scales with the batch, so a shape change at an
// iteration boundary resizes it.
func (e *exec) ensurePersistent(allocated *int64) error {
	rt := e.rt
	want := rt.P.PersistentBytes
	if *allocated == want {
		return nil
	}
	if *allocated > 0 {
		if err := rt.GPU.Free(rt.Persistent.ID); err != nil {
			return err
		}
		*allocated = 0
		rt.Persistent = gpumem.Allocation{}
	}
	if want > 0 {
		a, err := rt.GPU.Alloc(want)
		if err != nil {
			return fmt.Errorf("allocating persistent state: %w", err)
		}
		rt.Persistent = a
		*allocated = want
	}
	return nil
}

// abortIteration reclaims all functional state after a failed
// iteration: unlock every tensor, free both copies, drop pending
// transfers. The pool must account to zero afterwards, exactly like a
// successful iteration's epilogue.
func (e *exec) abortIteration() error {
	rt := e.rt
	for id := range rt.TS {
		t := rt.P.Reg.Get(id)
		t.Locked = false
		e.mm.Residency.FreeAll(t)
	}
	rt.PendingOff = rt.PendingOff[:0]
	if rt.ResBytes != 0 || rt.ResCount != 0 {
		return fmt.Errorf("aborted iteration leaks %d bytes / %d tensors", rt.ResBytes, rt.ResCount)
	}
	return nil
}
