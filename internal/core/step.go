package core

import (
	"repro/internal/gpumem"
	"repro/internal/layers"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// runStep executes one step of the program: it lets the offload engine
// overlap transfers, the replayer reconstruct dropped dependencies and
// the residency manager pin the working set, then submits the kernel
// and applies the post-step policy hooks.
func (rt *runState) runStep(si int) error {
	st := &rt.p.Steps[si]
	rt.curStep = si
	stepStart := rt.tl.Now()

	// Trigger planned prefetches so the H2D copy overlaps this step's
	// computation (§3.3.1), and harvest completed offloads.
	if err := rt.prefetch(si); err != nil {
		return err
	}
	rt.harvest(false)

	// Recomputation replays reconstruct dropped forward dependencies.
	var replayedNow []*tensor.Tensor
	if st.Phase == program.Backward {
		var err error
		replayedNow, err = rt.replayFor(st)
		if err != nil {
			return err
		}
	}

	// Pin reads on the GPU, collecting the transfer events the kernel
	// must wait for, and materialize writes.
	deps, err := rt.pinReads(st)
	if err != nil {
		return err
	}
	if err := rt.materializeWrites(st); err != nil {
		return err
	}

	// Dynamic convolution workspace (§3.5): the fastest algorithm that
	// fits the bytes left after the functional tensors. Selection costs
	// no time: the timing model is noise-free, so a cudnnFind-style
	// probe of every feasible algorithm would pick this same one.
	var wsAlloc gpumem.Allocation
	var wsBytes int64
	algo := layers.Algo{Kind: layers.AlgoImplicitGEMM, Speedup: 1.0}
	var maxWS int64
	if st.Node.L.Type == layers.Conv {
		maxWS = st.Node.L.MaxSpeedAlgo().Workspace
		if rt.cfg.DynamicWorkspace {
			budget := rt.gpu.MaxAlloc()
			if rt.cfg.WorkspaceLimit > 0 && rt.cfg.WorkspaceLimit < budget {
				budget = rt.cfg.WorkspaceLimit
			}
			algo = st.Node.L.BestAlgoWithin(budget)
			if algo.Workspace > 0 {
				a, err := rt.gpu.Alloc(algo.Workspace)
				if err != nil {
					// Should not happen in this single-threaded
					// executor; degrade to the zero-workspace algorithm.
					algo = layers.Algo{Kind: layers.AlgoImplicitGEMM, Speedup: 1.0}
				} else {
					rt.chargeAlloc()
					wsAlloc, wsBytes = a, algo.Workspace
				}
			}
		}
	}

	// Submit the kernel, gated on its inbound transfers.
	var dur sim.Duration
	if st.Phase == program.Forward {
		dur = st.Node.L.FwdTime(rt.cfg.Device, algo.Speedup)
	} else {
		dur = st.Node.L.BwdTime(rt.cfg.Device, algo.Speedup)
	}
	engineFree := rt.compute.FreeAt()
	ev := rt.compute.Submit(rt.tl.Now(), dur, deps...)
	kernelStart := ev.At() - sim.Time(dur)
	floor := engineFree
	if rt.tl.Now() > floor {
		floor = rt.tl.Now()
	}
	if kernelStart > floor {
		rt.res.StallTime += sim.Duration(kernelStart - floor)
	}
	if rt.cfg.CollectTrace {
		rt.span("compute", st.Label(), ev, dur)
	}
	rt.tl.Wait(ev)

	if wsBytes > 0 {
		rt.chargeFree()
		if err := rt.gpu.Free(wsAlloc.ID); err != nil {
			return err
		}
	}

	// Post-kernel offload protocol: eager D2H of fresh checkpoints and
	// the zero-cost reclaim of the host-backed input batch.
	rt.afterKernel(st)

	rt.unpin(st)

	// Post-step frees.
	if rt.cfg.Liveness {
		// Memory-centric replays evaporate immediately (§3.4).
		for _, t := range replayedNow {
			rt.freeGPU(t)
		}
		for _, tid := range rt.live.FreeAfter[si] {
			rt.freeAll(rt.p.Reg.Get(tid))
		}
		if st.Phase == program.Forward {
			rt.dropAfterFwd(si)
		}
	}

	// The label stays empty: a run that returns its step profiles
	// renders the labels at copy-out (copySteps).
	rt.steps = append(rt.steps, StepProfile{
		Index:             si,
		Phase:             st.Phase,
		ResidentBytes:     rt.resBytes,
		LiveTensors:       rt.resCount,
		PoolUsedBytes:     rt.gpu.Used(),
		WorkspaceBytes:    wsBytes,
		MaxSpeedWorkspace: maxWS,
		Algo:              algo.Kind,
		Time:              sim.Duration(rt.tl.Now() - stepStart),
	})
	return nil
}

// runUpdate models the momentum-SGD weight update: a bandwidth-bound
// pass reading parameters, gradients and momentum and writing
// parameters and momentum, plus two fused multiply-adds per element.
func (rt *runState) runUpdate() {
	start := rt.tl.Now()
	params := rt.p.Net.ParamBytes()
	if params == 0 {
		return
	}
	elems := float64(params / tensor.ElemSize)
	dur := rt.cfg.Device.KernelTime(4*elems, 5*params,
		0.10*rt.cfg.Device.EffScale, 0.85*rt.cfg.Device.MemEffScale)
	ev := rt.compute.Submit(rt.tl.Now(), dur)
	rt.span("compute", "sgd update", ev, dur)
	rt.tl.Wait(ev)
	rt.steps = append(rt.steps, StepProfile{
		Index:         len(rt.p.Steps),
		Label:         "sgd update",
		Phase:         program.Backward,
		ResidentBytes: rt.resBytes,
		LiveTensors:   rt.resCount,
		PoolUsedBytes: rt.gpu.Used(),
		Time:          sim.Duration(rt.tl.Now() - start),
	})
}
