package layers

import (
	"testing"
	"testing/quick"

	"repro/internal/hw"
	"repro/internal/tensor"
)

func alexConv1(n int) Spec {
	return NewConv("conv1", tensor.Shape{N: n, C: 3, H: 227, W: 227}, 96, 11, 4, 0)
}

func TestConvGeometry(t *testing.T) {
	c := alexConv1(200)
	want := tensor.Shape{N: 200, C: 96, H: 55, W: 55}
	if c.Out != want {
		t.Fatalf("conv1 out = %v, want %v", c.Out, want)
	}
	// Paper anchor: 221.56 MiB at batch 200.
	mib := float64(c.Out.Bytes()) / (1 << 20)
	if mib < 221.5 || mib > 221.6 {
		t.Errorf("conv1 out = %.2f MiB, want 221.56", mib)
	}
}

func TestPoolGeometry(t *testing.T) {
	p := NewPool("pool1", tensor.Shape{N: 1, C: 96, H: 55, W: 55}, 3, 2, 0, false)
	if p.Out.H != 27 || p.Out.W != 27 || p.Out.C != 96 {
		t.Fatalf("pool out = %v", p.Out)
	}
}

func TestShapePreservingLayers(t *testing.T) {
	in := tensor.Shape{N: 4, C: 16, H: 8, W: 8}
	for _, s := range []Spec{NewAct("a", in), NewLRN("l", in), NewBN("b", in), NewDropout("d", in), NewSoftmax("s", in)} {
		if s.Out != in {
			t.Errorf("%s: out %v != in %v", s.Type, s.Out, in)
		}
	}
}

func TestFCGeometry(t *testing.T) {
	fc := NewFC("fc1", tensor.Shape{N: 32, C: 256, H: 6, W: 6}, 4096)
	if fc.Out != tensor.Vec(32, 4096) {
		t.Fatalf("fc out = %v", fc.Out)
	}
	// params = 256*6*6*4096 weights + 4096 biases, 4 bytes each.
	want := int64(256*6*6*4096+4096) * 4
	if fc.ParamBytes() != want {
		t.Errorf("fc params = %d, want %d", fc.ParamBytes(), want)
	}
}

func TestConcatGeometry(t *testing.T) {
	a := tensor.Shape{N: 2, C: 32, H: 7, W: 7}
	b := tensor.Shape{N: 2, C: 64, H: 7, W: 7}
	c := NewConcat("cat", a, b)
	if c.Out.C != 96 || c.Out.H != 7 {
		t.Fatalf("concat out = %v", c.Out)
	}
}

func TestConcatMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("concat with mismatched spatial dims must panic")
		}
	}()
	NewConcat("bad", tensor.Shape{N: 1, C: 1, H: 7, W: 7}, tensor.Shape{N: 1, C: 1, H: 8, W: 8})
}

func TestEltwiseMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("eltwise with mismatched shapes must panic")
		}
	}()
	NewEltwise("bad", tensor.Shape{N: 1, C: 1, H: 7, W: 7}, tensor.Shape{N: 1, C: 2, H: 7, W: 7})
}

func TestCheckpointClassification(t *testing.T) {
	in := tensor.Shape{N: 1, C: 3, H: 32, W: 32}
	conv := NewConv("c", in, 8, 3, 1, 1)
	fc := NewFC("f", in, 10)
	data := NewData("d", in)
	pool := NewPool("p", in, 2, 2, 0, false)
	act := NewAct("a", in)
	for _, s := range []Spec{conv, fc, data} {
		if !s.IsCheckpoint() {
			t.Errorf("%s must be a checkpoint", s.Type)
		}
	}
	for _, s := range []Spec{pool, act, NewLRN("l", in), NewBN("b", in)} {
		if s.IsCheckpoint() {
			t.Errorf("%s must not be a checkpoint", s.Type)
		}
	}
	if !conv.IsOffloadable() || fc.IsOffloadable() || pool.IsOffloadable() {
		t.Error("only CONV outputs are offloaded (§3.3.1)")
	}
}

func TestInPlaceBackward(t *testing.T) {
	in := tensor.Shape{N: 1, C: 3, H: 8, W: 8}
	for _, s := range []Spec{NewAct("a", in), NewDropout("d", in),
		NewConcat("c", in, in), NewEltwise("e", in, in), NewData("x", in)} {
		if s.AllocatesDX() {
			t.Errorf("%s must not allocate a dX tensor", s.Type)
		}
	}
	for _, s := range []Spec{NewConv("c", in, 4, 3, 1, 1), NewPool("p", in, 2, 2, 0, false),
		NewLRN("l", in), NewBN("b", in), NewFC("f", in, 10), NewSoftmax("s", in)} {
		if !s.AllocatesDX() {
			t.Errorf("%s must allocate a dX tensor", s.Type)
		}
	}
}

func TestBwdNeeds(t *testing.T) {
	in := tensor.Shape{N: 1, C: 3, H: 8, W: 8}
	cases := []struct {
		s            Spec
		wantX, wantY bool
	}{
		{NewConv("c", in, 4, 3, 1, 1), true, false},
		{NewPool("p", in, 2, 2, 0, false), true, true},
		{NewAct("a", in), true, true},
		{NewLRN("l", in), true, true},
		{NewBN("b", in), true, false},
		{NewFC("f", in, 10), true, false},
		{NewDropout("d", in), false, false},
		{NewSoftmax("s", in), false, true},
	}
	for _, c := range cases {
		x, y := c.s.BwdNeeds()
		if x != c.wantX || y != c.wantY {
			t.Errorf("%s BwdNeeds = (%v,%v), want (%v,%v)", c.s.Type, x, y, c.wantX, c.wantY)
		}
	}
}

func TestConvFLOPs(t *testing.T) {
	c := alexConv1(1)
	// 2 * outElems * Cin * K^2 = 2 * 96*55*55 * 3 * 121.
	want := 2.0 * 96 * 55 * 55 * 3 * 121
	if got := c.FwdFLOPs(); got != want {
		t.Errorf("conv1 FwdFLOPs = %g, want %g", got, want)
	}
	if c.BwdFLOPs() != 2*want {
		t.Error("conv backward must be 2x forward FLOPs")
	}
}

func TestComputeVsMemoryBound(t *testing.T) {
	// The paper's Fig. 8 premise: CONV dominates time, POOL/ACT/LRN/BN
	// dominate memory. Check time ratios on a same-size layer pair.
	in := tensor.Shape{N: 32, C: 256, H: 27, W: 27}
	conv := NewConv("c", in, 256, 3, 1, 1)
	pool := NewPool("p", in, 3, 2, 0, false)
	d := hw.TitanXP
	if conv.FwdTime(d, 1) <= 4*pool.FwdTime(d, 1) {
		t.Errorf("conv (%v) should cost >>4x pool (%v)", conv.FwdTime(d, 1), pool.FwdTime(d, 1))
	}
}

func TestConvAlgosAvailability(t *testing.T) {
	in := tensor.Shape{N: 8, C: 64, H: 28, W: 28}
	k3 := NewConv("k3", in, 64, 3, 1, 1)
	k5 := NewConv("k5", in, 64, 5, 1, 2)
	k11s4 := NewConv("k11", tensor.Shape{N: 8, C: 3, H: 227, W: 227}, 96, 11, 4, 0)

	kinds := func(s Spec) map[AlgoKind]Algo {
		m := make(map[AlgoKind]Algo)
		set, n := s.convAlgoSet()
		for _, a := range set[:n] {
			m[a.Kind] = a
		}
		return m
	}
	m3 := kinds(k3)
	if _, ok := m3[AlgoWinograd]; !ok {
		t.Error("3x3 s1 must offer Winograd")
	}
	if _, ok := m3[AlgoFFT]; ok {
		t.Error("3x3 must not offer FFT (cuDNN restricts to k>=5 here)")
	}
	m5 := kinds(k5)
	if _, ok := m5[AlgoFFT]; !ok {
		t.Error("5x5 s1 must offer FFT")
	}
	m11 := kinds(k11s4)
	if _, ok := m11[AlgoFFT]; ok {
		t.Error("strided conv must not offer FFT")
	}
	if _, ok := m11[AlgoWinograd]; ok {
		t.Error("11x11 must not offer Winograd")
	}
	if m11[AlgoImplicitGEMM].Workspace != 0 {
		t.Error("implicit GEMM needs zero workspace")
	}
}

func TestBestAlgoWithin(t *testing.T) {
	in := tensor.Shape{N: 8, C: 64, H: 28, W: 28}
	c := NewConv("c", in, 64, 3, 1, 1)
	// Unlimited budget picks the fastest (Winograd, speedup 2.0).
	if a := c.MaxSpeedAlgo(); a.Kind != AlgoWinograd {
		t.Errorf("max-speed algo = %v, want winograd", a.Kind)
	}
	// Zero budget always finds implicit GEMM.
	if a := c.BestAlgoWithin(0); a.Kind != AlgoImplicitGEMM {
		t.Errorf("zero-budget algo = %v, want implicit-gemm", a.Kind)
	}
	// Budget just under Winograd's workspace falls back to the best
	// fitting alternative.
	wg := c.MaxSpeedAlgo().Workspace
	a := c.BestAlgoWithin(wg - 1)
	if a.Kind == AlgoWinograd {
		t.Error("algo must respect the workspace budget")
	}
	if a.Speedup < 1.0 {
		t.Error("fallback must never be slower than implicit GEMM")
	}
}

func TestWorkspaceSpeedsUpConv(t *testing.T) {
	// Fig. 2 premise: conv with workspace is 1.2-2.5x faster.
	in := tensor.Shape{N: 32, C: 96, H: 27, W: 27}
	c := NewConv("c", in, 256, 5, 1, 2)
	d := hw.TitanXP
	slow := c.FwdTime(d, 1.0)
	fast := c.FwdTime(d, c.MaxSpeedAlgo().Speedup)
	ratio := float64(slow) / float64(fast)
	if ratio < 1.2 || ratio > 2.6 {
		t.Errorf("workspace speedup = %.2fx, want within [1.2,2.6]", ratio)
	}
}

func TestConvAlgosOnNonConvPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("convAlgoSet on non-conv must panic")
		}
	}()
	p := NewPool("p", tensor.Shape{N: 1, C: 1, H: 4, W: 4}, 2, 2, 0, false)
	p.convAlgoSet()
}

func TestTypeString(t *testing.T) {
	if Conv.String() != "CONV" || Softmax.String() != "SOFTMAX" {
		t.Error("type names wrong")
	}
	if Type(99).String() == "" {
		t.Error("unknown type must still print")
	}
	if AlgoWinograd.String() != "winograd" || AlgoKind(99).String() == "" {
		t.Error("algo names wrong")
	}
}

// Property: BestAlgoWithin is monotone — more budget never picks a
// slower algorithm, and the workspace always fits the budget.
func TestBestAlgoMonotoneProperty(t *testing.T) {
	in := tensor.Shape{N: 16, C: 64, H: 28, W: 28}
	c := NewConv("c", in, 128, 3, 1, 1)
	f := func(b1, b2 uint32) bool {
		lo, hi := int64(b1)*1024, int64(b1)*1024+int64(b2)*1024
		a1, a2 := c.BestAlgoWithin(lo), c.BestAlgoWithin(hi)
		return a1.Speedup <= a2.Speedup && a1.Workspace <= lo && a2.Workspace <= hi
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: forward time scales monotonically with batch size.
func TestTimeMonotoneInBatchProperty(t *testing.T) {
	f := func(n1, n2 uint8) bool {
		a := int(n1%32) + 1
		b := a + int(n2%32)
		ca := NewConv("c", tensor.Shape{N: a, C: 16, H: 14, W: 14}, 32, 3, 1, 1)
		cb := NewConv("c", tensor.Shape{N: b, C: 16, H: 14, W: 14}, 32, 3, 1, 1)
		return ca.FwdTime(hw.TitanXP, 1) <= cb.FwdTime(hw.TitanXP, 1)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
