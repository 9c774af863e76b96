package program

import (
	"testing"

	"repro/internal/layers"
	"repro/internal/nnet"
	"repro/internal/tensor"
)

const mib = float64(1 << 20)

func TestAlexNetProgramShape(t *testing.T) {
	p := Build(nnet.AlexNet(200))
	// 24 nodes (data + the paper's 23) -> 24 forward + 23 backward steps.
	if got := len(p.Steps); got != 47 {
		t.Errorf("steps = %d, want 47", got)
	}
	// 24 forward outputs + 14 dX tensors (conv5, pool3, lrn2, fc3, softmax).
	if got := p.Reg.Len(); got != 38 {
		t.Errorf("tensors = %d, want 38", got)
	}
	nDX := 0
	for _, dx := range p.DX {
		if dx != nil {
			nDX++
		}
	}
	if nDX != 14 {
		t.Errorf("dX tensors = %d, want 14", nDX)
	}
}

func TestStepOrdering(t *testing.T) {
	p := Build(nnet.AlexNet(4))
	for i, st := range p.Steps {
		if st.Index != i {
			t.Fatalf("step %d has index %d", i, st.Index)
		}
	}
	// First half forward in route order, second half backward reversed.
	n := len(p.Net.Nodes)
	for i := 0; i < n; i++ {
		if p.Steps[i].Phase != Forward {
			t.Fatalf("step %d should be forward", i)
		}
	}
	for i := n; i < len(p.Steps); i++ {
		if p.Steps[i].Phase != Backward {
			t.Fatalf("step %d should be backward", i)
		}
	}
	if p.Steps[n-1].Node != p.Steps[n].Node {
		t.Error("backward must start at the last forward layer")
	}
}

func TestGradAliasingInPlaceChains(t *testing.T) {
	net := nnet.AlexNet(4)
	p := Build(net)
	byName := make(map[string]*nnet.Node)
	for _, nd := range net.Nodes {
		byName[nd.Name()] = nd
	}
	// relu1 is in-place: its "dX" is the gradient buffer of its own
	// output, which is lrn1's dX.
	relu1, lrn1 := byName["relu1"], byName["lrn1"]
	if p.DX[relu1.ID] != nil {
		t.Fatal("relu must not allocate dX")
	}
	if p.GradOut[relu1.ID] != p.DX[lrn1.ID] {
		t.Error("gradOut(relu1) must alias lrn1.dX")
	}
	// conv1's dY is gradOut(conv1) = relu1's gradIn = lrn1.dX too.
	conv1 := byName["conv1"]
	if p.GradOut[conv1.ID] != p.DX[lrn1.ID] {
		t.Error("gradOut(conv1) must alias lrn1.dX through the in-place relu")
	}
	// The loss layer has no output gradient.
	softmax := byName["softmax"]
	if p.GradOut[softmax.ID] != nil {
		t.Error("loss layer must have nil gradOut")
	}
	if p.DX[softmax.ID] == nil {
		t.Error("loss layer must seed a gradient tensor")
	}
}

func TestGradAliasingResNetJoin(t *testing.T) {
	net := nnet.ResNet(50, 2)
	p := Build(net)
	// For an eltwise join, both branch producers and the join itself
	// share one gradient buffer (views of dY).
	for _, nd := range net.Nodes {
		if nd.L.Type != layers.Eltwise {
			continue
		}
		g := p.GradOut[nd.ID]
		if g == nil {
			t.Fatalf("join %s has nil gradOut", nd.Name())
		}
		for _, pr := range nd.Prev {
			if p.GradOut[pr.ID] != g {
				t.Errorf("branch %s does not alias join %s's gradient", pr.Name(), nd.Name())
			}
		}
		break
	}
}

func TestWorkingSetLRN1Backward(t *testing.T) {
	// The paper's l_peak anchor: backward LRN1 on AlexNet b=200 needs
	// x, y, dy, dx — four 221.56 MiB tensors = 886.23 MiB (Table 1).
	p := Build(nnet.AlexNet(200))
	var lrn1 *nnet.Node
	for _, nd := range p.Net.Nodes {
		if nd.Name() == "lrn1" {
			lrn1 = nd
		}
	}
	ws := float64(p.WorkingSet(p.BwdStep[lrn1.ID])) / mib
	if ws < 886.22 || ws > 886.24 {
		t.Errorf("backward LRN1 working set = %.3f MiB, want 886.23", ws)
	}
	lp, step := p.LPeak()
	if p.Steps[step].Node != lrn1 {
		t.Errorf("lpeak at %s, want lrn1 bwd", p.Steps[step].Label())
	}
	if got := float64(lp) / mib; got < 886.22 || got > 886.24 {
		t.Errorf("lpeak = %.3f MiB, want 886.23", got)
	}
}

func TestBaselineBytes(t *testing.T) {
	p := Build(nnet.AlexNet(200))
	// Baseline = all data + grad tensors at once; must exceed the
	// paper's 2189 MiB (we model two extra tensors) but stay in range.
	got := float64(p.BaselineBytes()) / mib
	if got < 2100 || got > 2900 {
		t.Errorf("baseline = %.1f MiB, expected 2100-2900", got)
	}
}

func TestPersistentBytes(t *testing.T) {
	net := nnet.AlexNet(32)
	p := Build(net)
	want := 2*net.ParamBytes() + net.AuxBytes()
	if p.PersistentBytes != want {
		t.Errorf("persistent = %d, want %d", p.PersistentBytes, want)
	}
}

func TestBackwardReadsMatchKernelSignatures(t *testing.T) {
	net := nnet.AlexNet(2)
	p := Build(net)
	for _, nd := range net.Nodes {
		bs := p.BwdStep[nd.ID]
		if bs < 0 {
			continue
		}
		st := &p.Steps[bs]
		readsOwn := false
		readsInput := false
		for _, r := range st.Reads {
			if r == p.Out[nd.ID] {
				readsOwn = true
			}
			for _, pr := range nd.Prev {
				if r == p.Out[pr.ID] {
					readsInput = true
				}
			}
		}
		needX, needY := nd.L.BwdNeeds()
		if needY && !readsOwn {
			t.Errorf("%s bwd must read its own output", nd.Name())
		}
		if needX && !readsInput {
			t.Errorf("%s bwd must read its input", nd.Name())
		}
	}
}

func TestStepTensorsDeduplicates(t *testing.T) {
	a := &tensor.Tensor{ID: 1, Shape: tensor.Shape{N: 1, C: 1, H: 1, W: 256}}
	st := Step{Reads: []*tensor.Tensor{a, a}, Writes: []*tensor.Tensor{a}}
	if got := StepTensors(&st); len(got) != 1 {
		t.Errorf("dedup failed: %d tensors", len(got))
	}
}

func TestAllArchitecturesLower(t *testing.T) {
	for _, e := range nnet.Registry {
		net := e.Build(2)
		p := Build(net)
		if len(p.Steps) != 2*len(net.Nodes)-1 {
			t.Errorf("%s: steps = %d, want %d", e.Name, len(p.Steps), 2*len(net.Nodes)-1)
		}
		// Every non-data node's backward reads a gradient.
		for _, nd := range net.Nodes {
			if bs := p.BwdStep[nd.ID]; bs >= 0 {
				if p.GradOut[nd.ID] == nil && p.DX[nd.ID] == nil {
					t.Errorf("%s/%s: backward with no gradient tensors", e.Name, nd.Name())
				}
			}
		}
		if lp, _ := p.LPeak(); lp <= 0 || lp > p.BaselineBytes() {
			t.Errorf("%s: lpeak %d out of range", e.Name, lp)
		}
	}
}

func TestPhaseString(t *testing.T) {
	if Forward.String() != "fwd" || Backward.String() != "bwd" {
		t.Error("phase names wrong")
	}
}

func TestInPlaceActLowering(t *testing.T) {
	net := nnet.VGG16(4)
	plain := Build(net)
	inplace := BuildWith(nnet.VGG16(4), Options{InPlaceAct: true})
	if inplace.Reg.Len() >= plain.Reg.Len() {
		t.Fatalf("in-place lowering must create fewer tensors: %d vs %d",
			inplace.Reg.Len(), plain.Reg.Len())
	}
	// Every single-consumer ReLU shares its producer's buffer.
	byName := make(map[string]*nnet.Node)
	for _, nd := range inplace.Net.Nodes {
		byName[nd.Name()] = nd
	}
	relu := byName["relu1_1"]
	if inplace.Out[relu.ID] != inplace.Out[relu.Prev[0].ID] {
		t.Error("relu1_1 must alias conv1_1's output")
	}
	// The baseline footprint shrinks accordingly.
	if inplace.BaselineBytes() >= plain.BaselineBytes() {
		t.Error("in-place lowering must reduce the Σf+Σb baseline")
	}
	// Working sets stay valid: lpeak is positive and below baseline.
	lp, _ := inplace.LPeak()
	if lp <= 0 || lp > inplace.BaselineBytes() {
		t.Errorf("in-place lpeak %d out of range", lp)
	}
}
