package program

import (
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/nnet"
	"repro/internal/tensor"
)

// referenceBuild is the straightforward lowering BuildWith replaced:
// one allocation per tensor, full tensor name and access list, and output
// gradients resolved by a recursive walk down the consumer graph. It is
// the oracle the arena lowering must reproduce exactly.
func referenceBuild(net *nnet.Net, opts Options) *Program {
	n := len(net.Nodes)
	p := &Program{
		Net:     net,
		Reg:     &tensor.Registry{},
		Out:     make([]*tensor.Tensor, n),
		DX:      make([]*tensor.Tensor, n),
		GradOut: make([]*tensor.Tensor, n),
		FwdStep: make([]int, n),
		BwdStep: make([]int, n),
	}
	route := net.Route()
	for _, nd := range route {
		if opts.InPlaceAct && inPlaceEligible(nd) {
			p.Out[nd.ID] = p.Out[nd.Prev[0].ID]
			continue
		}
		p.Out[nd.ID] = p.Reg.New(nd.Name()+".y", "", tensor.Data, nd.L.Out)
	}
	for i := len(route) - 1; i >= 0; i-- {
		nd := route[i]
		if nd.L.AllocatesDX() {
			p.DX[nd.ID] = p.Reg.New(nd.Name()+".dx", "", tensor.Grad, nd.L.In[0])
		}
	}
	for _, nd := range route {
		p.GradOut[nd.ID] = referenceGradOut(p, nd, make(map[int]bool))
	}
	p.PersistentBytes = 2*net.ParamBytes() + net.AuxBytes()
	for _, nd := range route {
		st := Step{Index: len(p.Steps), Node: nd, Phase: Forward}
		for _, pr := range nd.Prev {
			st.Reads = append(st.Reads, p.Out[pr.ID])
		}
		st.Writes = append(st.Writes, p.Out[nd.ID])
		p.FwdStep[nd.ID] = st.Index
		p.Steps = append(p.Steps, st)
	}
	for i := range p.BwdStep {
		p.BwdStep[i] = -1
	}
	for i := len(route) - 1; i >= 0; i-- {
		nd := route[i]
		if len(nd.Prev) == 0 {
			continue
		}
		st := Step{Index: len(p.Steps), Node: nd, Phase: Backward}
		if g := p.GradOut[nd.ID]; g != nil {
			st.Reads = append(st.Reads, g)
		}
		needX, needY := nd.L.BwdNeeds()
		if needX {
			for _, pr := range nd.Prev {
				st.Reads = append(st.Reads, p.Out[pr.ID])
			}
		}
		if needY {
			st.Reads = append(st.Reads, p.Out[nd.ID])
		}
		if dx := p.DX[nd.ID]; dx != nil {
			st.Writes = append(st.Writes, dx)
		} else if g := p.GradOut[nd.ID]; g != nil {
			st.Writes = append(st.Writes, g)
		}
		p.BwdStep[nd.ID] = st.Index
		p.Steps = append(p.Steps, st)
	}
	return p
}

// referenceGradOut walks down the consumer graph to the dX buffer of
// the nearest downstream dX-allocating layer, following in-place and
// view-aliasing chains through each node's first consumer.
func referenceGradOut(p *Program, nd *nnet.Node, visiting map[int]bool) *tensor.Tensor {
	if len(nd.Next) == 0 {
		return nil
	}
	if visiting[nd.ID] {
		return nil
	}
	visiting[nd.ID] = true
	c := nd.Next[0]
	if dx := p.DX[c.ID]; dx != nil {
		return dx
	}
	return referenceGradOut(p, c, visiting)
}

// lowerableNets returns every registry net plus a small Table 4 ResNet.
func lowerableNets() []*nnet.Net {
	var nets []*nnet.Net
	for _, e := range nnet.Registry {
		nets = append(nets, e.Build(4))
	}
	return append(nets, nnet.ResNetTable4(2, 8))
}

func tensorIDs(ts []*tensor.Tensor) []int {
	ids := make([]int, len(ts))
	for i, t := range ts {
		ids[i] = t.ID
	}
	return ids
}

func sameIDs(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// optID is a tensor's ID, or -1 for nil.
func optID(t *tensor.Tensor) int {
	if t == nil {
		return -1
	}
	return t.ID
}

func TestBuildMatchesReference(t *testing.T) {
	for _, net := range lowerableNets() {
		for _, inPlace := range []bool{false, true} {
			opts := Options{InPlaceAct: inPlace}
			got, want := BuildWith(net, opts), referenceBuild(net, opts)
			name := net.Name
			if inPlace {
				name += "/inplace"
			}
			if got.Reg.Len() != want.Reg.Len() || len(got.Steps) != len(want.Steps) {
				t.Fatalf("%s: %d tensors, %d steps; reference %d, %d", name,
					got.Reg.Len(), len(got.Steps), want.Reg.Len(), len(want.Steps))
			}
			for id, g := range got.Reg.All() {
				w := want.Reg.Get(id)
				if g.ID != id || g.Name() != w.Name() || g.Kind != w.Kind || g.Shape != w.Shape {
					t.Errorf("%s: tensor %d = %v, reference %v", name, id, g, w)
				}
			}
			for i := range got.Steps {
				g, w := &got.Steps[i], &want.Steps[i]
				if g.Index != w.Index || g.Node != w.Node || g.Phase != w.Phase || g.Label() != w.Label() {
					t.Errorf("%s: step %d is %d %q, reference %d %q", name, i, g.Index, g.Label(), w.Index, w.Label())
				}
				if !sameIDs(tensorIDs(g.Reads), tensorIDs(w.Reads)) || !sameIDs(tensorIDs(g.Writes), tensorIDs(w.Writes)) {
					t.Errorf("%s: step %s reads %v writes %v, reference %v %v", name, g.Label(),
						tensorIDs(g.Reads), tensorIDs(g.Writes), tensorIDs(w.Reads), tensorIDs(w.Writes))
				}
			}
			for id := range net.Nodes {
				if optID(got.Out[id]) != optID(want.Out[id]) || optID(got.DX[id]) != optID(want.DX[id]) ||
					optID(got.GradOut[id]) != optID(want.GradOut[id]) {
					t.Errorf("%s: node %d out/dx/gradOut %d/%d/%d, reference %d/%d/%d", name, id,
						optID(got.Out[id]), optID(got.DX[id]), optID(got.GradOut[id]),
						optID(want.Out[id]), optID(want.DX[id]), optID(want.GradOut[id]))
				}
				if got.FwdStep[id] != want.FwdStep[id] || got.BwdStep[id] != want.BwdStep[id] {
					t.Errorf("%s: node %d steps %d/%d, reference %d/%d", name, id,
						got.FwdStep[id], got.BwdStep[id], want.FwdStep[id], want.BwdStep[id])
				}
			}
			if got.PersistentBytes != want.PersistentBytes {
				t.Errorf("%s: persistent %d, reference %d", name, got.PersistentBytes, want.PersistentBytes)
			}
		}
	}
}

// The access lists share one arena; appending to one step's list must
// reallocate rather than spill into the next step's entries.
func TestStepListAppendDoesNotClobberNext(t *testing.T) {
	p := Build(nnet.AlexNet(4))
	for i := 0; i+1 < len(p.Steps); i++ {
		next := p.Steps[i+1]
		reads, writes := tensorIDs(next.Reads), tensorIDs(next.Writes)
		stray := p.Reg.Get(0)
		_ = append(p.Steps[i].Reads, stray)
		_ = append(p.Steps[i].Writes, stray)
		if !sameIDs(tensorIDs(next.Reads), reads) || !sameIDs(tensorIDs(next.Writes), writes) {
			t.Fatalf("appending to step %d's lists changed step %d", i, i+1)
		}
	}
}

// allocsPerRun is testing.AllocsPerRun with the garbage collector off
// while it measures. A GC cycle allocates runtime objects of its own
// (the process's first cycle starts its mark workers), and
// AllocsPerRun counts them against f: a cycle that lands inside the
// measured runs adds one allocation per run or more to a count of a
// handful of runs, depending on how much the tests before it left on
// the heap.
func allocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}

// A lowering allocates a fixed number of objects whatever the depth.
func TestBuildAllocsIndependentOfDepth(t *testing.T) {
	shallow, deep := nnet.ResNetTable4(16, 1), nnet.ResNetTable4(16, 64)
	a := allocsPerRun(5, func() { BuildWith(shallow, Options{}) })
	b := allocsPerRun(5, func() { BuildWith(deep, Options{}) })
	if a != b {
		t.Errorf("BuildWith allocations: %.0f at n3=1, %.0f at n3=64; want equal", a, b)
	}
}

// Lowering into a Program that held a larger network gives the
// program a fresh lowering gives, and allocates nothing.
func TestBuildIntoReusesArrays(t *testing.T) {
	small, large := nnet.ResNetTable4(16, 1), nnet.ResNetTable4(16, 64)
	p := BuildWith(large, Options{})
	for _, opts := range []Options{{}, {InPlaceAct: true}} {
		if got, want := BuildInto(p, small, opts), BuildWith(small, opts); !reflect.DeepEqual(got, want) {
			t.Fatalf("%+v: lowering into a used Program differs from a fresh lowering", opts)
		}
	}
	if allocs := allocsPerRun(5, func() { BuildInto(p, small, Options{}) }); allocs != 0 {
		t.Errorf("lowering into a used Program made %.0f allocations, want 0", allocs)
	}
}
