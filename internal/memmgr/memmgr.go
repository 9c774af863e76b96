// Package memmgr is the SuperNeurons executor's memory management: the
// paper's runtime — Liveness Analysis + Unified Tensor Pool +
// Cost-Aware Recomputation — as one set of concrete subsystems
// operating over the shared Runtime state:
//
//   - StdResidency: tensor placement — pinning reads, materializing
//     writes, allocation under pressure (evict/reclaim) and frees.
//   - StdOffload: the Unified Tensor Pool's D2H/H2D machinery — eager
//     offloads, harvest of completed transfers, prefetch and on-demand
//     fetch, and the host-pool spill order.
//   - StdReplayer: recomputation — reconstructing dropped forward
//     tensors segment by segment during back-propagation.
//   - StdTuner: convolution-workspace policy — picking the fastest
//     algorithm that fits the remaining budget, optionally with
//     cudnnFind-style autotuning.
//
// Every run wires all four (NewComponents); the normalized Config's
// technique flags decide which mechanisms engage. A named manager
// ("superneurons", "vdnn", "naive", the framework models) is one row
// of a fixed table: a donor Config that owns the technique flags.
// Config.Manager selects the row; "" and "custom" interpret the
// caller's flags literally, which is how the paper's ablation studies
// toggle individual mechanisms. The step loop in internal/core is pure
// orchestration over these subsystems; it owns no policy.
package memmgr

import "sort"

// Names returns the manager names Config.Manager accepts, sorted.
func Names() []string {
	out := make([]string, 0, len(managers))
	for n := range managers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
