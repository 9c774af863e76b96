package tensor

import (
	"testing"
	"testing/quick"
)

func TestShapeBytes(t *testing.T) {
	// AlexNet CONV1 output at batch 200: 200x96x55x55 floats. The paper
	// reports 221.56 MB for this tensor, which matches bytes/2^20 —
	// this anchors our byte accounting to the paper's units.
	s := Shape{N: 200, C: 96, H: 55, W: 55}
	if got := s.Bytes(); got != 232320000 {
		t.Fatalf("CONV1 output bytes = %d, want 232320000", got)
	}
	mib := float64(s.Bytes()) / (1 << 20)
	if mib < 221.55 || mib > 221.57 {
		t.Errorf("CONV1 output = %.2f MiB, paper says 221.56", mib)
	}
}

func TestPaperAlexNetTensorAnchors(t *testing.T) {
	// §4.1.1: CONV2 = 142.38 MB, CONV3 = CONV4 = 49.51 MB at batch 200.
	anchors := []struct {
		s    Shape
		want float64
	}{
		{Shape{200, 256, 27, 27}, 142.38},
		{Shape{200, 384, 13, 13}, 49.51},
	}
	for _, a := range anchors {
		mib := float64(a.s.Bytes()) / (1 << 20)
		if mib < a.want-0.01 || mib > a.want+0.01 {
			t.Errorf("%v = %.2f MiB, want %.2f", a.s, mib, a.want)
		}
	}
}

func TestVec(t *testing.T) {
	s := Vec(32, 4096)
	if s != (Shape{32, 4096, 1, 1}) {
		t.Errorf("Vec = %v", s)
	}
	if !s.Valid() {
		t.Error("Vec shape should be valid")
	}
}

func TestShapeValid(t *testing.T) {
	if (Shape{0, 1, 1, 1}).Valid() {
		t.Error("zero batch must be invalid")
	}
	if (Shape{1, 1, -1, 1}).Valid() {
		t.Error("negative dim must be invalid")
	}
}

func TestShapeString(t *testing.T) {
	if got := (Shape{1, 2, 3, 4}).String(); got != "1x2x3x4" {
		t.Errorf("String = %q", got)
	}
}

func TestKindStrings(t *testing.T) {
	if Data.String() != "data" || Workspace.String() != "workspace" {
		t.Error("kind names wrong")
	}
	if Kind(250).String() == "" {
		t.Error("out-of-range kinds must still print")
	}
}

// A tensor's name is its layer's name plus its suffix, rendered only
// when asked for.
func TestTensorNameAndString(t *testing.T) {
	var r Registry
	tn := r.New("conv1", ".dx", Grad, Shape{2, 3, 4, 5})
	if got := tn.Name(); got != "conv1.dx" {
		t.Errorf("Name = %q, want conv1.dx", got)
	}
	if got := tn.String(); got != "t0[conv1.dx grad 2x3x4x5]" {
		t.Errorf("String = %q", got)
	}
}

func TestRegistryIDs(t *testing.T) {
	var r Registry
	a := r.New("a", ".y", Data, Shape{1, 1, 1, 1})
	b := r.New("b", ".dx", Grad, Shape{1, 2, 3, 4})
	if a.ID != 0 || b.ID != 1 {
		t.Errorf("IDs = %d,%d, want 0,1", a.ID, b.ID)
	}
	if r.Len() != 2 || r.Get(1) != b {
		t.Error("registry lookup broken")
	}
	if r.All()[0] != a {
		t.Error("All order broken")
	}
}

// Grow puts the reserved tensors in one slab; New past the reservation
// falls back to single allocations, and no pointer handed out moves.
func TestRegistryGrowKeepsPointersStable(t *testing.T) {
	var r Registry
	first := r.New("before", ".y", Data, Shape{1, 1, 1, 1})
	r.Grow(2)
	var got []*Tensor
	for i := 0; i < 5; i++ {
		got = append(got, r.New("t", ".dx", Grad, Shape{1, 1, 1, i + 1}))
	}
	if r.Get(0) != first || first.Name() != "before.y" {
		t.Error("Grow disturbed a tensor registered before it")
	}
	for i, tn := range got {
		if r.Get(i+1) != tn || tn.ID != i+1 || tn.Shape.W != i+1 {
			t.Errorf("tensor %d: got %v", i+1, tn)
		}
	}
	reserve := func(n int) float64 {
		return testing.AllocsPerRun(10, func() {
			var r Registry
			r.Grow(n)
			for i := 0; i < n; i++ {
				r.New("t", ".y", Data, Shape{1, 1, 1, 1})
			}
		})
	}
	if few, many := reserve(2), reserve(64); few != many {
		t.Errorf("reserving 2 tensors made %.0f allocations, 64 made %.0f; want equal", few, many)
	}
}

// Reset empties the registry and the next lowering reuses its slab:
// IDs restart at 0 and a Grow no larger than the old one allocates
// nothing.
func TestRegistryResetReusesSlab(t *testing.T) {
	var r Registry
	r.Grow(8)
	for i := 0; i < 8; i++ {
		r.New("old", ".y", Data, Shape{1, 1, 1, 8})
	}
	first := r.Get(0)
	r.Reset()
	if r.Len() != 0 {
		t.Fatalf("Len after Reset = %d, want 0", r.Len())
	}
	if allocs := testing.AllocsPerRun(5, func() {
		r.Reset()
		r.Grow(6)
		for i := 0; i < 6; i++ {
			r.New("new", ".dx", Grad, Shape{1, 1, 1, i + 1})
		}
	}); allocs != 0 {
		t.Errorf("refilling a reset registry made %.0f allocations, want 0", allocs)
	}
	if r.Len() != 6 || r.Get(0) != first {
		t.Fatalf("after refill: %d tensors, first %p, want 6 in the old slab at %p", r.Len(), r.Get(0), first)
	}
	for i, tn := range r.All() {
		if tn.ID != i || tn.Name() != "new.dx" || tn.Kind != Grad || tn.Shape.W != i+1 || tn.Locked {
			t.Errorf("tensor %d after Reset: %v (locked %v)", i, tn, tn.Locked)
		}
	}
}

func TestRegistryInvalidShapePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New with invalid shape must panic")
		}
	}()
	var r Registry
	r.New("bad", ".y", Data, Shape{})
}

func TestTotalBytes(t *testing.T) {
	var r Registry
	r.New("d", ".y", Data, Shape{1, 1, 1, 256})  // 1 KiB
	r.New("g", ".dx", Grad, Shape{1, 1, 1, 512}) // 2 KiB
	r.New("p", "", Param, Shape{1, 1, 1, 256})   // 1 KiB
	if got := r.TotalBytes(); got != 4096 {
		t.Errorf("TotalBytes() = %d, want 4096", got)
	}
	if got := r.TotalBytes(Data, Grad); got != 3072 {
		t.Errorf("TotalBytes(Data,Grad) = %d, want 3072", got)
	}
	if got := r.TotalBytes(Workspace); got != 0 {
		t.Errorf("TotalBytes(Workspace) = %d, want 0", got)
	}
}

// Property: Bytes is always ElemSize * product of dims for positive
// shapes, and tensors report the same footprint as their shape.
func TestBytesProperty(t *testing.T) {
	f := func(n, c, h, w uint8) bool {
		s := Shape{int(n%16) + 1, int(c%64) + 1, int(h%32) + 1, int(w%32) + 1}
		want := int64(s.N) * int64(s.C) * int64(s.H) * int64(s.W) * ElemSize
		var r Registry
		tt := r.New("x", ".y", Data, s)
		return s.Bytes() == want && tt.Bytes() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
