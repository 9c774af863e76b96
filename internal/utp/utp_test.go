package utp

import (
	"runtime/debug"
	"slices"
	"testing"

	"repro/internal/layers"
	"repro/internal/nnet"
	"repro/internal/program"
	"repro/internal/recompute"
)

func TestOffloadConvSelectsConvOutputsOnly(t *testing.T) {
	net := nnet.AlexNet(32)
	p := program.Build(net)
	rp := recompute.BuildPlan(p, recompute.CostAware)
	pl := BuildPlan(p, OffloadConv, rp)
	for _, nd := range net.Nodes {
		got := pl.OffloadTensor[p.Out[nd.ID].ID]
		want := nd.L.Type == layers.Conv
		if got != want {
			t.Errorf("%s (%s): offload=%v want %v", nd.Name(), nd.L.Type, got, want)
		}
	}
	// Gradient tensors are never offloaded.
	for _, dx := range p.DX {
		if dx != nil && pl.OffloadTensor[dx.ID] {
			t.Error("gradient tensor marked for offload")
		}
	}
}

func TestOffloadConvAndKeptIncludesJoins(t *testing.T) {
	net := nnet.ResNet(50, 4)
	p := program.Build(net)
	rp := recompute.BuildPlan(p, recompute.CostAware)
	pl := BuildPlan(p, OffloadConvAndKept, rp)
	joins, offloadedJoins := 0, 0
	for _, nd := range net.Nodes {
		if nd.L.Type == layers.Eltwise {
			joins++
			if pl.OffloadTensor[p.Out[nd.ID].ID] {
				offloadedJoins++
			}
		}
	}
	if joins == 0 || offloadedJoins != joins {
		t.Errorf("offloaded %d of %d join outputs, want all", offloadedJoins, joins)
	}
	// Dropped (recomputable) tensors are not offloaded.
	for _, nd := range net.Nodes {
		if rp.Drop[nd.ID] && pl.OffloadTensor[p.Out[nd.ID].ID] {
			t.Errorf("dropped tensor %s marked for offload", nd.Name())
		}
	}
}

func TestSmallTensorsNeverOffloaded(t *testing.T) {
	net := nnet.AlexNet(32)
	p := program.Build(net)
	rp := recompute.BuildPlan(p, recompute.None)
	pl := BuildPlan(p, OffloadSwapAll, rp)
	for _, nd := range net.Nodes {
		switch nd.L.Type {
		case layers.FC, layers.Softmax, layers.Dropout, layers.Data:
			if pl.OffloadTensor[p.Out[nd.ID].ID] {
				t.Errorf("%s output offloaded despite §3.3.1 exclusion", nd.L.Type)
			}
		}
	}
}

func TestSwapAllKeepsJoinsResident(t *testing.T) {
	net := nnet.ResNet(50, 4)
	p := program.Build(net)
	rp := recompute.BuildPlan(p, recompute.None)
	pl := BuildPlan(p, OffloadSwapAll, rp)
	for _, nd := range net.Nodes {
		if nd.L.Type == layers.Eltwise && pl.OffloadTensor[p.Out[nd.ID].ID] {
			t.Errorf("swap-all must keep join %s resident", nd.Name())
		}
		if nd.L.Type == layers.BN && !pl.OffloadTensor[p.Out[nd.ID].ID] {
			t.Errorf("swap-all must offload single-consumer %s", nd.Name())
		}
	}
}

func TestLastFwdReadAndFirstBwdNeed(t *testing.T) {
	net := nnet.AlexNet(8)
	p := program.Build(net)
	rp := recompute.BuildPlan(p, recompute.None)
	pl := BuildPlan(p, OffloadConv, rp)
	byName := make(map[string]*nnet.Node)
	for _, nd := range net.Nodes {
		byName[nd.Name()] = nd
	}
	conv1 := p.Out[byName["conv1"].ID]
	// conv1.y is read forward by relu1 and backward first by relu1's
	// backward (cuDNN activation backward takes x).
	if got, want := pl.LastFwdRead[conv1.ID], p.FwdStep[byName["relu1"].ID]; got != want {
		t.Errorf("conv1.y lastFwdRead = %d, want %d (relu1 fwd)", got, want)
	}
	if got, want := pl.FirstBwdNeed[conv1.ID], p.BwdStep[byName["relu1"].ID]; got != want {
		t.Errorf("conv1.y firstBwdNeed = %d, want %d (relu1 bwd)", got, want)
	}
}

func TestReplaySeedsPullNeedsForward(t *testing.T) {
	net := nnet.AlexNet(8)
	p := program.Build(net)
	rp := recompute.BuildPlan(p, recompute.CostAware)
	pl := BuildPlan(p, OffloadConv, rp)
	byName := make(map[string]*nnet.Node)
	for _, nd := range net.Nodes {
		byName[nd.Name()] = nd
	}
	// conv1.y seeds the replay of [relu1,lrn1,pool1], which triggers at
	// conv2's backward (the first reader of pool1.y). Its first need
	// must therefore be no later than conv2's backward step.
	conv1 := p.Out[byName["conv1"].ID]
	if pl.FirstBwdNeed[conv1.ID] > p.BwdStep[byName["conv2"].ID] {
		t.Errorf("replay seed need %d is after the segment trigger %d",
			pl.FirstBwdNeed[conv1.ID], p.BwdStep[byName["conv2"].ID])
	}
}

func TestPrefetchTriggersPrecedeNeeds(t *testing.T) {
	for _, build := range []func(int) *nnet.Net{nnet.AlexNet, nnet.VGG16} {
		net := build(4)
		p := program.Build(net)
		rp := recompute.BuildPlan(p, recompute.CostAware)
		pl := BuildPlan(p, OffloadConv, rp)
		if len(pl.PrefetchAt) != len(p.Steps) {
			t.Fatalf("%s: PrefetchAt has %d steps, the program %d", net.Name, len(pl.PrefetchAt), len(p.Steps))
		}
		for trigger, ids := range pl.PrefetchAt {
			if len(ids) == 0 {
				continue // not a trigger
			}
			st := &p.Steps[trigger]
			if st.Phase != program.Backward || st.Node.L.Type != layers.Conv {
				t.Errorf("%s: prefetch trigger %d is not a CONV backward step", net.Name, trigger)
			}
			for _, id := range ids {
				if pl.FirstBwdNeed[id] <= trigger {
					t.Errorf("%s: tensor %d prefetched at %d but needed at %d",
						net.Name, id, trigger, pl.FirstBwdNeed[id])
				}
			}
		}
	}
}

func TestEveryOffloadedTensorWithNeedHasTriggerOrIsEarly(t *testing.T) {
	net := nnet.VGG16(4)
	p := program.Build(net)
	rp := recompute.BuildPlan(p, recompute.CostAware)
	pl := BuildPlan(p, OffloadConv, rp)
	scheduled := make(map[int]bool)
	for _, ids := range pl.PrefetchAt {
		for _, id := range ids {
			scheduled[id] = true
		}
	}
	firstConvBwd := -1
	for si := range p.Steps {
		st := &p.Steps[si]
		if st.Phase == program.Backward && st.Node.L.Type == layers.Conv {
			firstConvBwd = si
			break
		}
	}
	for id, off := range pl.OffloadTensor {
		if !off || pl.FirstBwdNeed[id] < 0 || scheduled[id] {
			continue
		}
		// Unscheduled tensors must be needed before the first CONV
		// backward step (no earlier trigger exists): they are fetched
		// on demand.
		if pl.FirstBwdNeed[id] > firstConvBwd {
			t.Errorf("tensor %d (need %d) has no prefetch trigger", id, pl.FirstBwdNeed[id])
		}
	}
}

func TestOffloadableBytes(t *testing.T) {
	net := nnet.AlexNet(200)
	p := program.Build(net)
	rp := recompute.BuildPlan(p, recompute.None)
	pl := BuildPlan(p, OffloadConv, rp)
	// Five conv outputs: 221.56+142.38+49.51+49.51+33.01 = 495.97 MiB.
	got := float64(pl.OffloadableBytes(p)) / (1 << 20)
	if got < 495.9 || got > 496.1 {
		t.Errorf("offloadable = %.2f MiB, want ~495.97", got)
	}
}

func TestModeString(t *testing.T) {
	if OffloadConv.String() != "conv" || OffloadConvAndKept.String() != "conv+kept" {
		t.Error("mode names wrong")
	}
	if Mode(99).String() == "" {
		t.Error("unknown mode must print")
	}
}

// refPrefetchAt is the linear-scan trigger search BuildPlan used
// before it binary-searched the CONV backward steps: for every
// offloaded tensor, walk all CONV backward steps and keep the last one
// strictly before its first backward need.
func refPrefetchAt(p *program.Program, pl *Plan) map[int][]int {
	var convBwdSteps []int
	for si := range p.Steps {
		st := &p.Steps[si]
		if st.Phase == program.Backward && st.Node.L.IsOffloadable() {
			convBwdSteps = append(convBwdSteps, si)
		}
	}
	out := make(map[int][]int)
	for id, off := range pl.OffloadTensor {
		need := pl.FirstBwdNeed[id]
		if !off || need < 0 {
			continue
		}
		trigger := -1
		for _, cs := range convBwdSteps {
			if cs >= need {
				break
			}
			trigger = cs
		}
		if trigger >= 0 {
			out[trigger] = append(out[trigger], id)
		}
	}
	return out
}

// TestPrefetchAtMatchesLinearScan checks the binary-searched prefetch
// triggers against the linear-scan reference on the Table 4 ResNets
// and the Fig 10/14 networks, under every offload mode.
func TestPrefetchAtMatchesLinearScan(t *testing.T) {
	nets := []*nnet.Net{nnet.ResNetTable4(16, 1), nnet.ResNetTable4(16, 40), nnet.AlexNet(200)}
	for _, name := range []string{"AlexNet", "ResNet50", "VGG16", "ResNet101", "InceptionV4", "ResNet152"} {
		nets = append(nets, nnet.ByName(name)(8))
	}
	for _, net := range nets {
		p := program.Build(net)
		rp := recompute.BuildPlan(p, recompute.CostAware)
		for _, mode := range []Mode{OffloadConv, OffloadConvAndKept, OffloadSwapAll} {
			pl := BuildPlan(p, mode, rp)
			if len(pl.PrefetchAt) != len(p.Steps) {
				t.Fatalf("%s %s: PrefetchAt has %d steps, the program %d", net.Name, mode, len(pl.PrefetchAt), len(p.Steps))
			}
			want := refPrefetchAt(p, pl)
			for si, ids := range pl.PrefetchAt {
				if !slices.Equal(ids, want[si]) {
					t.Errorf("%s %s: step %d triggers %v, the linear scan %v", net.Name, mode, si, ids, want[si])
				}
			}
		}
	}
}

// Planning into a Plan that held a larger program's plan gives the
// plan a fresh BuildPlan gives, and allocates nothing.
func TestBuildPlanIntoReusesArrays(t *testing.T) {
	large, small := program.Build(nnet.ResNetTable4(16, 40)), program.Build(nnet.ResNetTable4(16, 2))
	rpLarge, rpSmall := recompute.BuildPlan(large, recompute.CostAware), recompute.BuildPlan(small, recompute.CostAware)
	pl := BuildPlan(large, OffloadConvAndKept, rpLarge)
	for _, mode := range []Mode{OffloadConv, OffloadConvAndKept, OffloadSwapAll} {
		got, want := BuildPlanInto(pl, small, mode, rpSmall), BuildPlan(small, mode, rpSmall)
		if !slices.Equal(got.OffloadTensor, want.OffloadTensor) || !slices.Equal(got.LastFwdRead, want.LastFwdRead) ||
			!slices.Equal(got.FirstBwdNeed, want.FirstBwdNeed) || len(got.PrefetchAt) != len(want.PrefetchAt) {
			t.Fatalf("%s: planning into a used Plan differs from a fresh plan", mode)
		}
		for si := range want.PrefetchAt {
			if !slices.Equal(got.PrefetchAt[si], want.PrefetchAt[si]) {
				t.Errorf("%s: step %d triggers %v in a used Plan, %v in a fresh one", mode, si, got.PrefetchAt[si], want.PrefetchAt[si])
			}
		}
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if allocs := testing.AllocsPerRun(5, func() { BuildPlanInto(pl, small, OffloadConvAndKept, rpSmall) }); allocs != 0 {
		t.Errorf("planning into a used Plan made %.0f allocations, want 0", allocs)
	}
}
