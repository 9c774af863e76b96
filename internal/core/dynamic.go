package core

// The dynamic run loop: training workloads whose input shape changes
// between iterations (bucketed sequence lengths, batch ramps, mixed
// request streams). The static Run path computes one plan before
// iteration 0 and replays it verbatim; here the program is rebuilt for
// the incoming shape at every iteration boundary, and — with
// Config.AdaptivePlan — an adaptive planner (adaptive.go) revises the
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

	"repro/internal/nnet"
	"repro/internal/recompute"
	"repro/internal/sim"
	"repro/internal/utp"
	"repro/internal/workload"
)

// IterationProfile records one iteration of a dynamic run: the shape
// and plan in force, the outcome, and the measurements. The adaptive
// planner reads it at the following boundary.
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
	return runDynamic(build, cfg, 0)
}

// runDynamic is RunDynamic with the planner parts in off masked out.
func runDynamic(build func(int) *nnet.Net, cfg Config, off adaptPart) (*DynamicResult, error) {
	cfg = cfg.withDefaults()
	sched := workload.Schedule(cfg.BatchSchedule)
	if err := sched.Validate(); err != nil {
		return nil, fmt.Errorf("core: dynamic run: %w", err)
	}
	iters := cfg.Iterations
	if iters < len(sched) {
		iters = len(sched)
	}

	var adapt *adaptive
	knobs := cfg
	if cfg.AdaptivePlan {
		adapt = newAdaptive(cfg)
		adapt.off = off
		knobs = adapt.config()
	}

	res := &DynamicResult{
		Adaptive: cfg.AdaptivePlan,
		Schedule: append([]int(nil), sched...),
	}

	a := arenas.Get().(*runArena)
	defer arenas.Put(a)
	var (
		rt           *runState
		curBatch     = -1
		rebindNeeded bool
		cacheBase    [2]int64 // hits, misses at the last (re)bind
	)

	for it := 0; it < iters; it++ {
		batch := sched.At(it)
		replanned := false
		switch {
		case rt == nil:
			net := build(batch)
			rt = newRunState(a, a.lower(net, knobs), knobs)
			res.Network = net.Name
			curBatch = batch
		case batch != curBatch || rebindNeeded:
			if err := rt.rebind(a.lower(build(batch), knobs), knobs); err != nil {
				return nil, fmt.Errorf("core: %s iteration %d: %w", res.Network, it, err)
			}
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

		start := rt.tl.Now()
		rt.gpu.ResetPeak()
		// Reset the per-iteration counters up front: if the persistent
		// resize OOMs below, runIteration (which normally resets them)
		// never runs, and the profile must not report the previous
		// iteration's stalls and traffic.
		rt.resetIteration()
		iterErr := rt.ensurePersistent()
		if iterErr == nil {
			iterErr = rt.runIteration()
		}
		if iterErr != nil {
			if !errors.Is(iterErr, ErrOutOfMemory) {
				return nil, fmt.Errorf("core: %s batch %d iteration %d: %w", res.Network, batch, it, iterErr)
			}
			prof.OOM = true
			res.OOMFailures++
			if err := rt.abortIteration(); err != nil {
				return nil, fmt.Errorf("core: %s iteration %d: %w", res.Network, it, err)
			}
		}

		prof.IterTime = sim.Duration(rt.tl.Now() - start)
		prof.StallTime = rt.res.StallTime
		prof.PoolPeak = rt.gpu.Peak()
		prof.Fragmentation = rt.gpu.Fragmentation()
		if rt.cache != nil {
			cs := rt.cache.Stats()
			prof.CacheHits = cs.Hits - cacheBase[0]
			prof.CacheMisses = cs.Misses - cacheBase[1]
			cacheBase = [2]int64{cs.Hits, cs.Misses}
		}
		prof.FailedPrefetches = rt.res.FailedPrefetches
		prof.OffloadBytes, prof.PrefetchBytes = rt.res.OffloadBytes, rt.res.PrefetchBytes

		if !prof.OOM {
			res.Images += int64(batch)
		}
		res.TotalStall += prof.StallTime
		res.Iters = append(res.Iters, prof)

		if adapt != nil && it+1 < iters {
			if adapt.observe(prof, sched.At(it+1), knobs.PoolBytes) {
				knobs = adapt.config()
				rebindNeeded = true
			}
		}
	}

	if adapt != nil {
		res.Replans = adapt.replans
	}
	res.TotalTime = sim.Duration(rt.tl.Now())
	if res.TotalTime > 0 {
		res.Throughput = float64(res.Images) / res.TotalTime.Seconds()
	}
	return res, nil
}

// abortIteration reclaims all functional state after a failed
// iteration: unlock every tensor, free both copies, drop pending
// transfers. The pool must account to zero afterwards, exactly like a
// successful iteration's epilogue.
func (rt *runState) abortIteration() error {
	for id := range rt.ts {
		t := rt.p.Reg.Get(id)
		t.Locked = false
		rt.freeAll(t)
	}
	rt.pendingOff = rt.pendingOff[:0]
	if rt.resBytes != 0 || rt.resCount != 0 {
		return fmt.Errorf("aborted iteration leaks %d bytes / %d tensors", rt.resBytes, rt.resCount)
	}
	return nil
}
