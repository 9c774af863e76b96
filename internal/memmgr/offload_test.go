package memmgr

// Regression tests for the Harvest(force) wait order: the forced wait
// must target the earliest-completing eligible transfer, never the
// first in PendingOff list order, and must not wait at all when a
// later-listed transfer is already harvestable.

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/nnet"
	"repro/internal/program"
	"repro/internal/sim"
)

// harvestFixture builds a runtime with two tensors resident on the GPU,
// ready to have pending offloads attached. Returns the runtime, the
// offload engine and the two tensor IDs.
func harvestFixture(t *testing.T) (*Runtime, *StdOffload, int, int) {
	t.Helper()
	p := program.Build(nnet.AlexNet(8))
	cfg := Config{Device: hw.TeslaK40c, UseMemPool: true}.WithDefaults()
	rt := NewRuntime(p, cfg)
	mm := NewComponents(rt)
	resid, off := mm.Residency, mm.Offload

	a, b := 1, 2
	for _, id := range []int{a, b} {
		if err := resid.Alloc(p.Reg.Get(id)); err != nil {
			t.Fatalf("placing tensor %d: %v", id, err)
		}
		// Make both eligible: the forward read horizon has passed.
		rt.UPlan.LastFwdRead[id] = -1
	}
	rt.CurStep = 0
	return rt, off, a, b
}

// Two in-flight offloads completing out of list order: the forced
// harvest must wait only for the earlier-completing one and leave the
// later one pending.
func TestHarvestForceWaitsOnEarliestEvent(t *testing.T) {
	rt, off, a, b := harvestFixture(t)
	// List order: the slow transfer first, the fast one second —
	// exactly the shape that made the old implementation stall on the
	// slow event.
	slow := rt.D2H.Submit(rt.TL.Now(), 100*sim.Microsecond)
	fast := rt.H2D.Submit(rt.TL.Now(), 10*sim.Microsecond)
	rt.TS[a].OffEv, rt.TS[a].OffPending = slow, true
	rt.TS[b].OffEv, rt.TS[b].OffPending = fast, true
	rt.PendingOff = append(rt.PendingOff, a, b)

	before := rt.TL.Now()
	if !off.Harvest(true) {
		t.Fatal("forced harvest freed nothing")
	}
	wantStall := sim.Duration(fast.At() - before)
	if rt.Res.StallTime != wantStall {
		t.Errorf("stall = %v, want the earliest event's wait %v (list-order wait would be %v)",
			rt.Res.StallTime, wantStall, sim.Duration(slow.At()-before))
	}
	if rt.TS[b].OnGPU {
		t.Errorf("fast-completing tensor %d not freed", b)
	}
	if !rt.TS[a].OnGPU || !rt.TS[a].OffPending {
		t.Errorf("slow-completing tensor %d must remain pending", a)
	}
	if len(rt.PendingOff) != 1 || rt.PendingOff[0] != a {
		t.Errorf("pending list = %v, want [%d]", rt.PendingOff, a)
	}
}

// A transfer that already completed — like the instantly-complete
// host-backed input batch, appended after slower in-flight copies —
// must be harvested without any forced wait.
func TestHarvestForceSkipsWaitWhenOneAlreadyDone(t *testing.T) {
	rt, off, a, b := harvestFixture(t)
	slow := rt.D2H.Submit(rt.TL.Now(), 100*sim.Microsecond)
	rt.TS[a].OffEv, rt.TS[a].OffPending = slow, true
	// The zero event completed at time zero (the host-backed input
	// batch protocol in AfterKernel records exactly this).
	rt.TS[b].OffEv, rt.TS[b].OffPending = sim.Event{}, true
	rt.PendingOff = append(rt.PendingOff, a, b)

	nowBefore := rt.TL.Now()
	if !off.Harvest(true) {
		t.Fatal("forced harvest freed nothing")
	}
	if rt.Res.StallTime != 0 {
		t.Errorf("harvest stalled %v although tensor %d was already harvestable",
			rt.Res.StallTime, b)
	}
	// The only clock advance is the free call itself, never a wait on
	// the in-flight event.
	if want := nowBefore + sim.Time(rt.GPU.FreeCost()); rt.TL.Now() != want {
		t.Errorf("clock at %d after harvest, want %d (one free call, no wait)", rt.TL.Now(), want)
	}
	if rt.TS[b].OnGPU {
		t.Errorf("completed tensor %d not freed", b)
	}
	if !rt.TS[a].OnGPU || !rt.TS[a].OffPending {
		t.Errorf("in-flight tensor %d must remain pending", a)
	}
}

// A planned prefetch that fails for allocation pressure must be
// tolerated (fetch-on-demand covers it) and counted as a near-miss
// signal; it must not abort the step.
func TestPrefetchAllocFailureToleratedAndCounted(t *testing.T) {
	p := program.Build(nnet.AlexNet(8))
	cfg := Config{Device: hw.TeslaK40c, UseMemPool: true, Prefetch: true}.WithDefaults()
	rt := NewRuntime(p, cfg)
	off := NewComponents(rt).Offload

	// Occupy the whole GPU pool so the prefetch's allocation must fail,
	// with no cache and no pending offloads to reclaim from.
	if _, err := rt.GPU.Alloc(rt.GPU.Capacity()); err != nil {
		t.Fatal(err)
	}

	// Stage the tensor on the host and plan its prefetch at step 0.
	id := 1
	tn := p.Reg.Get(id)
	ha, pool, ok := rt.HostAlloc(tn.Bytes())
	if !ok {
		t.Fatal("host alloc failed")
	}
	rt.TS[id].Host, rt.TS[id].HostPool, rt.TS[id].OnHost = ha, pool, true
	rt.UPlan.PrefetchAt = map[int][]int{0: {id}}

	if err := off.Prefetch(0); err != nil {
		t.Fatalf("allocation-pressure prefetch failure must be tolerated, got %v", err)
	}
	if rt.Res.FailedPrefetches != 1 {
		t.Errorf("FailedPrefetches = %d, want 1", rt.Res.FailedPrefetches)
	}
	if rt.TS[id].OnGPU || rt.TS[id].InflightValid {
		t.Error("failed prefetch must leave the tensor host-only")
	}
}
