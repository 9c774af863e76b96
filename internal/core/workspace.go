package core

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

// selectAlgo picks the convolution algorithm for a step under the
// given workspace budget. With Config.AutotuneConv it emulates
// cudnnFindConvolutionForwardAlgorithm: the first time a layer is
// planned (or when the budget no longer covers the cached choice)
// every memory-feasible candidate runs once on the compute engine and
// the fastest is cached. The cache persists across iterations of one
// bound program, so the probing cost is paid once per shape.
func (rt *runState) selectAlgo(st *program.Step, budget int64) layers.Algo {
	if !rt.cfg.AutotuneConv {
		return st.Node.L.BestAlgoWithin(budget)
	}
	if rt.algoCache == nil {
		rt.algoCache = make(map[int]tunedAlgo)
	}
	if c, ok := rt.algoCache[st.Index]; ok && c.algo.Workspace <= budget && c.budget <= budget {
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
			dur = st.Node.L.FwdTime(rt.cfg.Device, a.Speedup)
		} else {
			dur = st.Node.L.BwdTime(rt.cfg.Device, a.Speedup)
		}
		// The probe executes for real, like cudnnFind.
		ev := rt.compute.Submit(rt.tl.Now(), dur)
		rt.spanFor("compute", "autotune", st.Label(), ev, dur)
		rt.tl.Wait(ev)
		if dur < bestTime {
			bestTime = dur
			best = a
		}
	}
	rt.algoCache[st.Index] = tunedAlgo{algo: best, budget: budget}
	return best
}
