package core

// Regression tests for the Harvest(force) wait order: the forced wait
// must target the earliest-completing eligible transfer, never the
// first in pendingOff list order, and must not wait at all when a
// later-listed transfer is already harvestable.

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/nnet"
	"repro/internal/program"
	"repro/internal/sim"
)

// harvestFixture builds a run state with two tensors resident on the
// GPU, ready to have pending offloads attached. Returns the run state
// and the two tensor IDs.
func harvestFixture(t *testing.T) (*runState, int, int) {
	t.Helper()
	p := program.Build(nnet.AlexNet(8))
	cfg := Config{Device: hw.TeslaK40c, UseMemPool: true}.withDefaults()
	rt := newRunState(new(runArena), p, cfg)

	a, b := 1, 2
	for _, id := range []int{a, b} {
		if err := rt.alloc(p.Reg.Get(id)); err != nil {
			t.Fatalf("placing tensor %d: %v", id, err)
		}
		// Make both eligible: the forward read horizon has passed.
		rt.uplan.LastFwdRead[id] = -1
	}
	rt.curStep = 0
	return rt, a, b
}

// Two in-flight offloads completing out of list order: the forced
// harvest must wait only for the earlier-completing one and leave the
// later one pending.
func TestHarvestForceWaitsOnEarliestEvent(t *testing.T) {
	rt, a, b := harvestFixture(t)
	// List order: the slow transfer first, the fast one second —
	// exactly the shape that made the old implementation stall on the
	// slow event.
	slow := rt.d2h.Submit(rt.tl.Now(), 100*sim.Microsecond)
	fast := rt.h2d.Submit(rt.tl.Now(), 10*sim.Microsecond)
	rt.ts[a].offEv, rt.ts[a].offPending = slow, true
	rt.ts[b].offEv, rt.ts[b].offPending = fast, true
	rt.pendingOff = append(rt.pendingOff, a, b)

	before := rt.tl.Now()
	if !rt.harvest(true) {
		t.Fatal("forced harvest freed nothing")
	}
	wantStall := sim.Duration(fast.At() - before)
	if rt.res.StallTime != wantStall {
		t.Errorf("stall = %v, want the earliest event's wait %v (list-order wait would be %v)",
			rt.res.StallTime, wantStall, sim.Duration(slow.At()-before))
	}
	if rt.ts[b].onGPU {
		t.Errorf("fast-completing tensor %d not freed", b)
	}
	if !rt.ts[a].onGPU || !rt.ts[a].offPending {
		t.Errorf("slow-completing tensor %d must remain pending", a)
	}
	if len(rt.pendingOff) != 1 || rt.pendingOff[0] != a {
		t.Errorf("pending list = %v, want [%d]", rt.pendingOff, a)
	}
}

// A transfer that already completed — like the instantly-complete
// host-backed input batch, appended after slower in-flight copies —
// must be harvested without any forced wait.
func TestHarvestForceSkipsWaitWhenOneAlreadyDone(t *testing.T) {
	rt, a, b := harvestFixture(t)
	slow := rt.d2h.Submit(rt.tl.Now(), 100*sim.Microsecond)
	rt.ts[a].offEv, rt.ts[a].offPending = slow, true
	// The zero event completed at time zero (the host-backed input
	// batch protocol in afterKernel records exactly this).
	rt.ts[b].offEv, rt.ts[b].offPending = sim.Event{}, true
	rt.pendingOff = append(rt.pendingOff, a, b)

	nowBefore := rt.tl.Now()
	if !rt.harvest(true) {
		t.Fatal("forced harvest freed nothing")
	}
	if rt.res.StallTime != 0 {
		t.Errorf("harvest stalled %v although tensor %d was already harvestable",
			rt.res.StallTime, b)
	}
	// The only clock advance is the free call itself, never a wait on
	// the in-flight event.
	if want := nowBefore + sim.Time(rt.gpu.FreeCost()); rt.tl.Now() != want {
		t.Errorf("clock at %d after harvest, want %d (one free call, no wait)", rt.tl.Now(), want)
	}
	if rt.ts[b].onGPU {
		t.Errorf("completed tensor %d not freed", b)
	}
	if !rt.ts[a].onGPU || !rt.ts[a].offPending {
		t.Errorf("in-flight tensor %d must remain pending", a)
	}
}

// A planned prefetch that fails for allocation pressure must be
// tolerated (fetch-on-demand covers it) and counted as a near-miss
// signal; it must not abort the step.
func TestPrefetchAllocFailureToleratedAndCounted(t *testing.T) {
	p := program.Build(nnet.AlexNet(8))
	cfg := Config{Device: hw.TeslaK40c, UseMemPool: true, Prefetch: true}.withDefaults()
	rt := newRunState(new(runArena), p, cfg)

	// Occupy the whole GPU pool so the prefetch's allocation must fail,
	// with no cache and no pending offloads to reclaim from.
	if _, err := rt.gpu.Alloc(rt.gpu.Capacity()); err != nil {
		t.Fatal(err)
	}

	// Stage the tensor on the host and plan its prefetch at step 0.
	id := 1
	tn := p.Reg.Get(id)
	ha, pool, ok := rt.hostAlloc(tn.Bytes())
	if !ok {
		t.Fatal("host alloc failed")
	}
	rt.ts[id].host, rt.ts[id].hostPool, rt.ts[id].onHost = ha, pool, true
	rt.uplan.PrefetchAt[0] = []int{id}

	if err := rt.prefetch(0); err != nil {
		t.Fatalf("allocation-pressure prefetch failure must be tolerated, got %v", err)
	}
	if rt.res.FailedPrefetches != 1 {
		t.Errorf("FailedPrefetches = %d, want 1", rt.res.FailedPrefetches)
	}
	if rt.ts[id].onGPU || rt.ts[id].inflightValid {
		t.Error("failed prefetch must leave the tensor host-only")
	}
}
