package core

import (
	"strings"
	"testing"

	"repro/internal/hw"
	"repro/internal/nnet"
	"repro/internal/program"
)

// rebindFixture builds a run state over AlexNet at batch 8 and the
// batch-16 program a rebind would retarget it at.
func rebindFixture(t *testing.T, cfg Config) (*runState, *program.Program) {
	t.Helper()
	return newRunState(new(runArena), program.Build(nnet.AlexNet(8)), cfg.withDefaults()), program.Build(nnet.AlexNet(16))
}

func TestRebindRefusesResidentTensor(t *testing.T) {
	rt, next := rebindFixture(t, Config{Device: hw.TeslaK40c, UseMemPool: true})
	old := rt.p
	tn := rt.p.Reg.Get(1)
	if err := rt.alloc(tn); err != nil {
		t.Fatal(err)
	}
	err := rt.rebind(next, rt.cfg)
	if err == nil || !strings.Contains(err.Error(), "still resident") {
		t.Fatalf("rebind with a resident tensor: err = %v, want a still-resident refusal", err)
	}
	if rt.p != old {
		t.Error("a refused rebind must leave the bound program in place")
	}
	rt.freeAll(tn)
	if err := rt.rebind(next, rt.cfg); err != nil || rt.p != next {
		t.Fatalf("rebind after the free: err = %v, bound %v", err, rt.p.Net.Batch())
	}
}

func TestRebindRefusesPendingOffload(t *testing.T) {
	rt, next := rebindFixture(t, Config{Device: hw.TeslaK40c, UseMemPool: true})
	tn := rt.p.Reg.Get(1)
	if err := rt.alloc(tn); err != nil {
		t.Fatal(err)
	}
	rt.issueOffload(tn)
	// Dropping the GPU copy leaves nothing resident, but the D2H copy
	// into the host pool is still in flight.
	rt.freeGPU(tn)
	if rt.resBytes != 0 || !rt.ts[tn.ID].offPending {
		t.Fatalf("test premise: resident %d bytes, offload pending %v", rt.resBytes, rt.ts[tn.ID].offPending)
	}
	err := rt.rebind(next, rt.cfg)
	if err == nil || !strings.Contains(err.Error(), "still pending") {
		t.Fatalf("rebind with a pending offload: err = %v, want a still-pending refusal", err)
	}
	rt.freeAll(tn)
	if err := rt.rebind(next, rt.cfg); err != nil {
		t.Fatalf("rebind after the offload drained: %v", err)
	}
}
