// Package recompute implements §3.4 of the paper: trading computation
// for memory by dropping the forward outputs of cheap-to-compute
// layers and reconstructing them during back-propagation, with three
// strategies:
//
//   - SpeedCentric (MXNet-style): replay a whole recomputation segment
//     once and keep the results for all backward steps inside it —
//     O(N) extra forwards, but the segment's tensors coexist.
//   - MemoryCentric: replay the prefix a backward step needs and free
//     it immediately — O(N²) extra forwards, minimal footprint.
//   - CostAware (the paper's contribution): profile each segment; use
//     the speed-centric replay when its memory cost stays within
//     l_peak = max(l_i), and the memory-centric replay otherwise, so
//     the network-wide peak never exceeds l_peak while the extra
//     forwards stay close to the speed-centric minimum.
package recompute

import (
	"slices"

	"repro/internal/layers"
	"repro/internal/nnet"
	"repro/internal/program"
)

// Strategy selects how dropped forward tensors are reconstructed.
type Strategy uint8

// Strategies. None disables recomputation entirely (tensors are kept).
const (
	None Strategy = iota
	SpeedCentric
	MemoryCentric
	CostAware
)

var strategyNames = [...]string{"none", "speed-centric", "memory-centric", "cost-aware"}

// String returns the strategy name.
func (s Strategy) String() string {
	if int(s) < len(strategyNames) {
		return strategyNames[s]
	}
	return "strategy(?)"
}

// Segment is a maximal run of droppable layers between two checkpoints
// in route order. Checkpoint is the node whose output seeds the
// replay.
type Segment struct {
	ID         int
	Checkpoint *nnet.Node
	Members    []*nnet.Node // in route (replay) order

	// UseMemoryCentric is resolved per segment by the planner: false
	// means speed-centric replay.
	UseMemoryCentric bool
	// SpeedCost is the modeled peak bytes of a speed-centric replay:
	// Σ member outputs + the working set of the last member's backward
	// step (the paper's Σ l_i^f + l_seg^b).
	SpeedCost int64
}

// Plan is the resolved recomputation schedule for one program.
type Plan struct {
	Strategy Strategy
	// Drop[nodeID] marks forward outputs that are freed after their
	// last forward use and reconstructed on demand.
	Drop []bool
	// SegmentOf[nodeID] points to the segment containing the node
	// (nil for checkpoints and kept layers).
	SegmentOf []*Segment
	Segments  []*Segment
	// LPeak is max(l_i), the bound Cost-Aware honors.
	LPeak int64

	// segs backs Segments, and members backs every segment's Members.
	segs    []Segment
	members []*nnet.Node
}

// Droppable reports whether a node's forward output may be dropped and
// recomputed. Checkpoints (CONV/FC/Data) are never dropped — they are
// kept or offloaded. Join outputs (Eltwise/Concat) and fan-out tensors
// with several consumers carry long-range dependencies across segment
// boundaries, so dropping them would make replays recurse across
// segments; they are kept, which is also what yields the paper's
// segment structure (e.g. ResNet-50's 84 speed-centric replays). The
// final layer's output backs the loss gradient one step later and is
// never dropped.
func Droppable(nd *nnet.Node) bool {
	if nd.L.IsCheckpoint() {
		return false
	}
	switch nd.L.Type {
	case layers.Eltwise, layers.Concat:
		return false
	}
	if len(nd.Next) != 1 {
		return false // fan-out or loss layer
	}
	return true
}

// BuildPlan resolves the drop set, the segments and — for CostAware —
// the per-segment strategy for the given program.
func BuildPlan(p *program.Program, s Strategy) *Plan { return BuildPlanInto(new(Plan), p, s) }

// BuildPlanInto is BuildPlan into pl, reusing the arrays of whatever
// pl held before; a zero Plan is the empty case. The previous plan and
// its segments are overwritten.
func BuildPlanInto(pl *Plan, p *program.Program, s Strategy) *Plan {
	n := len(p.Net.Nodes)
	pl.Strategy, pl.LPeak = s, 0
	pl.Drop = slices.Grow(pl.Drop[:0], n)[:n]
	clear(pl.Drop)
	pl.SegmentOf = slices.Grow(pl.SegmentOf[:0], n)[:n]
	clear(pl.SegmentOf)
	pl.Segments = pl.Segments[:0]
	if s == None {
		return pl
	}
	lpeak, _ := p.LPeak()
	pl.LPeak = lpeak

	// Segments are maximal runs of droppable layers in route order,
	// which is the order of the forward steps. Members are carved from
	// one array that holds at most every node, so it never grows
	// mid-pass; the segment pointers are taken once segs is complete.
	segs := pl.segs[:0]
	members := slices.Grow(pl.members[:0], n)
	var lastCheckpoint *nnet.Node
	start := -1 // members index where the open segment begins
	for si := range n {
		nd := p.Steps[si].Node
		if Droppable(nd) {
			if start < 0 {
				segs = append(segs, Segment{ID: len(segs), Checkpoint: lastCheckpoint})
				start = len(members)
			}
			members = append(members, nd)
			segs[len(segs)-1].Members = members[start:len(members):len(members)]
			pl.Drop[nd.ID] = true
			continue
		}
		// Any kept layer acts as a replay seed for what follows: its
		// output stays resident (or is prefetched back for
		// checkpoints), so segments never span it.
		start = -1
		lastCheckpoint = nd
	}
	pl.segs, pl.members = segs, members

	for i := range segs {
		seg := &segs[i]
		pl.Segments = append(pl.Segments, seg)
		for _, m := range seg.Members {
			pl.SegmentOf[m.ID] = seg
		}
		seg.SpeedCost = speedCost(p, seg)
		switch s {
		case MemoryCentric:
			seg.UseMemoryCentric = true
		case SpeedCentric:
			seg.UseMemoryCentric = false
		case CostAware:
			seg.UseMemoryCentric = seg.SpeedCost > lpeak
		}
	}
	return pl
}

// speedCost models the paper's Σ_{i∈seg} l_i^f + l_seg^b: all member
// outputs held simultaneously plus the working set of the last
// member's backward step.
func speedCost(p *program.Program, seg *Segment) int64 {
	var sum int64
	for _, m := range seg.Members {
		sum += p.Out[m.ID].Bytes()
	}
	last := seg.Members[len(seg.Members)-1]
	if bs := p.BwdStep[last.ID]; bs >= 0 {
		sum += p.WorkingSet(bs)
	}
	return sum
}

// AnalyticExtras returns the closed-form recomputation counts the
// paper's Table 1 reports: Σ s per segment for speed-centric and
// Σ s(s+1)/2 for memory-centric, where s is the segment length. The
// executor measures the actual counts; both are reported side by side.
func (pl *Plan) AnalyticExtras() (speed, memory int) {
	for _, seg := range pl.Segments {
		s := len(seg.Members)
		speed += s
		memory += s * (s + 1) / 2
	}
	return speed, memory
}

// AnalyticCostAware returns the closed-form count for the resolved
// plan: s per speed-centric segment, s(s+1)/2 per memory-centric one —
// the accounting behind the paper's cost-aware column in Table 1.
func (pl *Plan) AnalyticCostAware() int {
	total := 0
	for _, seg := range pl.Segments {
		s := len(seg.Members)
		if seg.UseMemoryCentric {
			total += s * (s + 1) / 2
		} else {
			total += s
		}
	}
	return total
}

// MemoryCentricSegments returns how many segments resolved to the
// memory-centric replay (0 for SpeedCentric plans, all for
// MemoryCentric plans).
func (pl *Plan) MemoryCentricSegments() int {
	c := 0
	for _, seg := range pl.Segments {
		if seg.UseMemoryCentric {
			c++
		}
	}
	return c
}
