package memmgr

import (
	"repro/internal/layers"
	"repro/internal/program"
	"repro/internal/sim"
)

// tunedAlgo is one cached autotune result.
type tunedAlgo struct {
	algo   layers.Algo
	budget int64
}

// StdTuner picks the convolution algorithm for a step under the given
// workspace budget. With Config.AutotuneConv it emulates
// cudnnFindConvolutionForwardAlgorithm: the first time a layer is
// planned (or when the budget no longer covers the cached choice)
// every memory-feasible candidate runs once on the compute engine and
// the fastest is cached. The cache persists across iterations, so the
// probing cost is paid once per run.
type StdTuner struct {
	rt *Runtime
	// algoCache holds autotuned convolution choices per step index,
	// keyed with the workspace budget they were tuned under.
	algoCache map[int]tunedAlgo
}

// SelectAlgo picks the convolution algorithm for the step.
func (w *StdTuner) SelectAlgo(st *program.Step, budget int64) layers.Algo {
	rt := w.rt
	if !rt.Cfg.AutotuneConv {
		return st.Node.L.BestAlgoWithin(budget)
	}
	if w.algoCache == nil {
		w.algoCache = make(map[int]tunedAlgo)
	}
	if c, ok := w.algoCache[st.Index]; ok && c.algo.Workspace <= budget && c.budget <= budget {
		return c.algo
	}
	best := layers.Algo{Kind: layers.AlgoImplicitGEMM, Speedup: 1.0}
	var bestTime sim.Duration = 1 << 62
	for _, a := range st.Node.L.ConvAlgos() {
		if a.Workspace > budget {
			continue
		}
		var dur sim.Duration
		if st.Phase == program.Forward {
			dur = st.Node.L.FwdTime(rt.Cfg.Device, a.Speedup)
		} else {
			dur = st.Node.L.BwdTime(rt.Cfg.Device, a.Speedup)
		}
		// The probe executes for real, like cudnnFind.
		ev := rt.Compute.Submit(rt.TL.Now(), dur)
		rt.SpanFor("compute", "autotune", st.Label(), ev, dur)
		rt.TL.Wait(ev)
		if dur < bestTime {
			bestTime = dur
			best = a
		}
	}
	w.algoCache[st.Index] = tunedAlgo{algo: best, budget: budget}
	return best
}
