package core

import (
	"testing"

	"repro/internal/nnet"
	"repro/internal/program"
)

func TestTensorDemandsShareableShapesOnly(t *testing.T) {
	p := program.Build(nnet.AlexNet(8))
	ds := TensorDemands(p, 8)
	if len(ds) == 0 {
		t.Fatal("AlexNet program yields no shareable shapes")
	}
	if len(ds) > 8 {
		t.Fatalf("topK not honored: %d entries", len(ds))
	}
	seen := make(map[uint64]bool)
	for i, d := range ds {
		if d.Bytes <= 0 {
			t.Fatalf("entry %d malformed: %+v", i, d)
		}
		if seen[d.Key] {
			t.Fatalf("duplicate shape key %#x", d.Key)
		}
		seen[d.Key] = true
		if i > 0 && ds[i-1].Bytes < d.Bytes {
			t.Fatalf("entries not sorted largest-first at %d", i)
		}
	}
	// Deterministic extraction: a rebuilt program yields identical
	// demands (the planner's replay identity starts here).
	ds2 := TensorDemands(program.Build(nnet.AlexNet(8)), 8)
	if len(ds2) != len(ds) {
		t.Fatalf("re-extraction changed length: %d vs %d", len(ds2), len(ds))
	}
	for i := range ds {
		if ds[i] != ds2[i] {
			t.Fatalf("entry %d differs across extractions: %+v vs %+v", i, ds[i], ds2[i])
		}
	}
	if got := TensorDemands(nil, 8); got != nil {
		t.Fatal("nil program should yield nil")
	}
	if got := TensorDemands(p, 0); got != nil {
		t.Fatal("topK=0 should yield nil")
	}
}

func TestEstimateOfCarriesFloorAndSpill(t *testing.T) {
	r := &Result{PoolPeak: 1000, PersistentBytes: 300, OffloadBytes: 40, PrefetchBytes: 25}
	e := EstimateOf(r)
	if e.FloorBytes != 300 {
		t.Fatalf("floor %d, want 300", e.FloorBytes)
	}
	if e.SpillBytes != r.TotalTraffic() {
		t.Fatalf("spill %d, want %d", e.SpillBytes, r.TotalTraffic())
	}
	// Degenerate results cannot produce floor > peak.
	e = EstimateOf(&Result{PoolPeak: 100, PersistentBytes: 500})
	if e.FloorBytes != 100 {
		t.Fatalf("floor %d not clamped to peak", e.FloorBytes)
	}
}
