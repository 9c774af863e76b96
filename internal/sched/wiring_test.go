package sched

import (
	"errors"
	"reflect"
	"runtime/debug"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
)

// These tests pin the wiring of the performance mechanisms that
// DESIGN §7's keep-or-delete table keeps. The mechanisms change cost,
// never answers, so no result-level test notices one being bypassed;
// each test here fails when its mechanism is.

// TestPickGangConsultsFreeSummary: in isolated mode pickGang asks the
// free-capacity summary before it probes any device. Devices that all
// have room, behind a summary that says none does, get no placement.
func TestPickGangConsultsFreeSummary(t *testing.T) {
	for _, p := range []Policy{FIFO, Priority, Packing, TopoPacking} {
		e, err := newExec(testCluster(), p, nil)
		if err != nil {
			t.Fatal(err)
		}
		for _, gpus := range []int{1, 2} {
			js := &jobState{Job: Job{ID: "j", GPUs: gpus}, est: core.Estimate{PeakBytes: hw.MiB}}
			if g := p.pickGang(js, e); len(g) != gpus {
				t.Fatalf("%s: %d-GPU job on an idle cluster placed on %v", p.Name, gpus, g)
			}
			saved := append([]int64(nil), e.free...)
			clear(e.free)
			if g := p.pickGang(js, e); g != nil {
				t.Errorf("%s: %d-GPU job placed on %v although the summary says no device has room", p.Name, gpus, g)
			}
			copy(e.free, saved)
		}
	}
}

// TestEstimateReadsCache: a shape already in the cache is answered
// from it, not by a fresh dry run.
func TestEstimateReadsCache(t *testing.T) {
	est := NewEstimator()
	d := hw.TeslaK40c
	sentinel := core.Estimate{PeakBytes: 12345}
	errSentinel := errors.New("cached")
	est.cache[estKey{network: "AlexNet", batch: 16, manager: "naive", device: d}] = estVal{est: sentinel, err: errSentinel}
	got, err := est.Estimate("AlexNet", 16, "naive", d)
	if err != errSentinel || got != sentinel {
		t.Fatalf("Estimate = %+v, %v; want the cached %+v, %v", got, err, sentinel, errSentinel)
	}
}

// TestFinalizedJobResultAllocatesNothing: JobResult answers a
// finalized single-device job from the paused replay, without cloning
// and draining it.
func TestFinalizedJobResultAllocatesNothing(t *testing.T) {
	inc, err := NewIncremental(testCluster(), Packing, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(Job{ID: "a", Network: "AlexNet", Batch: 16, Manager: "naive", Iterations: 1}); err != nil {
		t.Fatal(err)
	}
	inc.AdvanceTo(sim.Time(sim.Second) * 3600)
	want, ok := inc.Finalized(0)
	if !ok {
		t.Fatal("job not finalized an hour of virtual time after it arrived")
	}
	var got JobResult
	allocs := allocsPerRun(100, func() { got, err = inc.JobResult(0) })
	if err != nil || !reflect.DeepEqual(got, want) {
		t.Fatalf("JobResult = %+v, %v; want %+v", got, err, want)
	}
	if allocs != 0 {
		t.Errorf("JobResult on a finalized job: %.0f allocations per call, want 0", allocs)
	}
}

// allocsPerRun is testing.AllocsPerRun with the garbage collector off
// while it measures, so the allocations of a GC cycle that lands
// inside the measured runs are not counted against f.
func allocsPerRun(runs int, f func()) float64 {
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(runs, f)
}
