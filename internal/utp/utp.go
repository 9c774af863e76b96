// Package utp plans the Unified Tensor Pool's offloading and
// prefetching (§3.3): which forward tensors leave the GPU for pinned
// host memory, when their GPU copies become reclaimable, and at which
// backward step each tensor's prefetch is triggered so the H2D copy
// overlaps the backward computation of one whole checkpoint interval.
//
// Following §3.3.1, only CONV outputs are offloaded: POOL/ACT/BN/LRN
// together hold ~50% of the memory but only ~20% of the compute, so
// their transfers cannot hide behind computation (they are recomputed
// instead, §3.4), while Dropout/Softmax/FC tensors are too small to be
// worth a transfer.
package utp

import (
	"slices"
	"sort"

	"repro/internal/layers"
	"repro/internal/program"
	"repro/internal/recompute"
)

// Mode selects which forward tensors the pool offloads.
type Mode uint8

// Offload modes.
const (
	// OffloadNone disables the UTP (everything stays on GPU).
	OffloadNone Mode = iota
	// OffloadConv offloads CONV outputs only — the paper's §3.3.1
	// protocol, used when recomputation handles the cheap layers.
	OffloadConv
	// OffloadConvAndKept offloads CONV outputs plus the large
	// non-recomputable tensors (join outputs and fan-out tensors with
	// several consumers, which carry long-range dependencies across
	// recomputation segments). Without this a deep non-linear network
	// keeps O(depth) join tensors resident, contradicting the paper's
	// peak_m = max(l_i) claim; this is SuperNeurons' mode.
	OffloadConvAndKept
	// OffloadSwapAll offloads every sizable single-consumer forward
	// output (CONV plus the cheap layers' outputs) — the
	// TensorFlow-style "swap long-lived tensors" policy the paper
	// compares against. Join outputs and fan-out tensors stay
	// resident: static swap heuristics keyed on topological distance
	// cannot safely move tensors with long-range, multi-consumer
	// dependencies.
	OffloadSwapAll
)

var modeNames = [...]string{"none", "conv", "conv+kept", "swap-all"}

// String returns the mode name.
func (m Mode) String() string {
	if int(m) < len(modeNames) {
		return modeNames[m]
	}
	return "mode(?)"
}

// tooSmallToOffload mirrors §3.3.1: Dropout, Softmax and FC outputs
// hold under 1% of total memory, so transferring them is never
// fruitful; the data layer is re-read from the input pipeline.
func tooSmallToOffload(t layers.Type) bool {
	switch t {
	case layers.FC, layers.Softmax, layers.Dropout, layers.Data:
		return true
	}
	return false
}

// Plan is the resolved offload/prefetch schedule for one program.
type Plan struct {
	// OffloadTensor[tensorID] marks forward outputs the UTP moves to
	// pinned host memory during the forward pass.
	OffloadTensor []bool
	// LastFwdRead[tensorID] is the last forward step reading the
	// tensor; the GPU copy of an offloaded tensor is reclaimable once
	// this step has executed and the D2H transfer completed.
	LastFwdRead []int
	// FirstBwdNeed[tensorID] is the first backward step that needs the
	// tensor resident again (directly, or as the replay seed of a
	// recomputation segment). -1 if never needed again.
	FirstBwdNeed []int
	// PrefetchAt[stepIndex] lists, in ascending order, the tensor IDs
	// whose prefetch is triggered when the executor reaches that
	// backward step: the latest CONV backward step that strictly
	// precedes the tensor's first backward need. It has one list per
	// step; a step with an empty list triggers nothing. Tensors with no
	// earlier CONV trigger are fetched on demand.
	PrefetchAt [][]int

	// convBwd lists the CONV backward steps in ascending order.
	convBwd []int
}

// BuildPlan derives the schedule from the program, the offload mode
// and the recomputation plan (replay seeds must be back on the GPU
// before their segment replays).
func BuildPlan(p *program.Program, mode Mode, rp *recompute.Plan) *Plan {
	return BuildPlanInto(new(Plan), p, mode, rp)
}

// BuildPlanInto is BuildPlan into pl, reusing the arrays of whatever
// pl held before, PrefetchAt's per-step lists included; a zero Plan is
// the empty case. Planning into a pl that held a plan at least this
// large allocates nothing. The previous plan is overwritten.
func BuildPlanInto(pl *Plan, p *program.Program, mode Mode, rp *recompute.Plan) *Plan {
	nT := p.Reg.Len()
	pl.OffloadTensor = slices.Grow(pl.OffloadTensor[:0], nT)[:nT]
	clear(pl.OffloadTensor)
	pl.LastFwdRead = slices.Grow(pl.LastFwdRead[:0], nT)[:nT]
	pl.FirstBwdNeed = slices.Grow(pl.FirstBwdNeed[:0], nT)[:nT]
	nS := len(p.Steps)
	pl.PrefetchAt = slices.Grow(pl.PrefetchAt[:0], nS)[:nS]
	for i := range pl.PrefetchAt {
		pl.PrefetchAt[i] = pl.PrefetchAt[i][:0]
	}
	for i := range pl.LastFwdRead {
		pl.LastFwdRead[i] = -1
		pl.FirstBwdNeed[i] = -1
	}

	for _, nd := range p.Net.Nodes {
		if tooSmallToOffload(nd.L.Type) {
			continue
		}
		off := false
		switch mode {
		case OffloadConv:
			off = nd.L.IsOffloadable()
		case OffloadConvAndKept:
			off = nd.L.IsOffloadable() || !recompute.Droppable(nd)
		case OffloadSwapAll:
			off = nd.L.IsOffloadable() || recompute.Droppable(nd)
		}
		if off {
			pl.OffloadTensor[p.Out[nd.ID].ID] = true
		}
	}

	// Forward read horizon and direct backward needs.
	for si := range p.Steps {
		st := &p.Steps[si]
		for _, t := range st.Reads {
			if st.Phase == program.Forward {
				pl.LastFwdRead[t.ID] = si
			} else if pl.FirstBwdNeed[t.ID] < 0 {
				pl.FirstBwdNeed[t.ID] = si
			}
		}
		// The producing step itself counts as a forward use.
		if st.Phase == program.Forward {
			for _, t := range st.Writes {
				if pl.LastFwdRead[t.ID] < si {
					pl.LastFwdRead[t.ID] = si
				}
			}
		}
	}

	// Replay seeds: the first backward step that reads any dropped
	// member of a segment triggers its replay, which reads the
	// checkpoint's output. Pull the seed's first backward need forward
	// to that trigger step.
	for _, seg := range rp.Segments {
		if seg.Checkpoint == nil {
			continue
		}
		trigger := -1
		for _, m := range seg.Members {
			if fb := pl.FirstBwdNeed[p.Out[m.ID].ID]; fb >= 0 && (trigger < 0 || fb < trigger) {
				trigger = fb
			}
		}
		if trigger < 0 {
			continue
		}
		seed := p.Out[seg.Checkpoint.ID]
		if pl.FirstBwdNeed[seed.ID] < 0 || trigger < pl.FirstBwdNeed[seed.ID] {
			pl.FirstBwdNeed[seed.ID] = trigger
		}
	}

	// Prefetch triggers: the latest CONV backward step strictly before
	// the first need ("at any CONV layer in the backward, the runtime
	// asynchronously fetches the required tensors for the previous
	// CONV layer").
	convBwdSteps := pl.convBwd[:0]
	for si := range p.Steps {
		st := &p.Steps[si]
		if st.Phase == program.Backward && st.Node.L.IsOffloadable() {
			convBwdSteps = append(convBwdSteps, si)
		}
	}
	pl.convBwd = convBwdSteps
	for id := range pl.OffloadTensor {
		if !pl.OffloadTensor[id] {
			continue
		}
		need := pl.FirstBwdNeed[id]
		if need < 0 {
			continue
		}
		// convBwdSteps is ascending: the trigger is the last entry
		// below need.
		if k := sort.SearchInts(convBwdSteps, need) - 1; k >= 0 {
			trigger := convBwdSteps[k]
			pl.PrefetchAt[trigger] = append(pl.PrefetchAt[trigger], id)
		}
	}
	return pl
}

// OffloadableBytes sums the footprint of all tensors the plan offloads
// (the per-iteration D2H traffic of the eager protocol).
func (pl *Plan) OffloadableBytes(p *program.Program) int64 {
	var sum int64
	for id, off := range pl.OffloadTensor {
		if off {
			sum += p.Reg.Get(id).Bytes()
		}
	}
	return sum
}
