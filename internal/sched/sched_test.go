package sched

import (
	"bytes"
	"context"
	"log/slog"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/workload"
)

func testCluster() Cluster { return Cluster{Device: hw.TeslaK40c, Devices: 2} }

func runTrace(t *testing.T, p Policy) *Result {
	t.Helper()
	s, err := NewScheduler(testCluster(), p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(JobsFromTrace(workload.DefaultTrace()))
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return res
}

// Two consecutive replays of the bundled trace must be identical in
// every field, for every policy — the determinism half of the
// acceptance criteria.
func TestDefaultTraceDeterministic(t *testing.T) {
	for _, p := range Policies() {
		a := runTrace(t, p)
		b := runTrace(t, p)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs of the same trace differ:\n%#v\n%#v", p.Name, a, b)
		}
	}
}

// No admitted job may ever exceed its device's capacity: the sum of
// reservations (tracked as the per-device high-water mark) stays
// within the device, and jobs that cannot fit an idle device are
// rejected rather than scheduled.
func TestCapacityInvariant(t *testing.T) {
	cap := testCluster().Capacity()
	for _, p := range Policies() {
		res := runTrace(t, p)
		for di, d := range res.Devices {
			if d.PeakReserved > cap {
				t.Errorf("%s: gpu%d peak reservation %d exceeds capacity %d", p.Name, di, d.PeakReserved, cap)
			}
			if d.PeakReserved <= 0 {
				t.Errorf("%s: gpu%d never used", p.Name, di)
			}
		}
		for _, j := range res.Jobs {
			if j.Rejected {
				continue
			}
			if j.Estimate.PeakBytes > cap {
				t.Errorf("%s: job %s admitted with peak %d > capacity %d", p.Name, j.ID, j.Estimate.PeakBytes, cap)
			}
			if j.Finish < j.Start || j.Start < j.Arrival {
				t.Errorf("%s: job %s has inconsistent times: arrival %d start %d finish %d",
					p.Name, j.ID, j.Arrival, j.Start, j.Finish)
			}
		}
	}
}

// The trace's too-big job must be rejected by admission control (its
// dry run cannot fit even an idle device), never scheduled.
func TestAdmissionControlRejects(t *testing.T) {
	for _, p := range Policies() {
		res := runTrace(t, p)
		found := false
		for _, j := range res.Jobs {
			if j.ID != "too-big" {
				if j.Rejected {
					t.Errorf("%s: job %s unexpectedly rejected: %s", p.Name, j.ID, j.Reason)
				}
				continue
			}
			found = true
			if !j.Rejected {
				t.Errorf("%s: too-big was admitted (peak %d)", p.Name, j.Estimate.PeakBytes)
			}
		}
		if !found {
			t.Fatalf("%s: too-big missing from results", p.Name)
		}
	}
}

// Memory-aware packing must achieve strictly higher cluster
// utilization than FIFO on the bundled trace: backfilling keeps the
// gaps beside the big residents provisioned while FIFO's blocked head
// leaves them idle.
func TestPackingBeatsFIFOUtilization(t *testing.T) {
	fifo := runTrace(t, FIFO)
	packing := runTrace(t, Packing)
	if packing.Utilization <= fifo.Utilization {
		t.Errorf("packing utilization %.4f not strictly above fifo %.4f",
			packing.Utilization, fifo.Utilization)
	}
	if packing.MeanWait() >= fifo.MeanWait() {
		t.Errorf("packing mean wait %v not below fifo %v", packing.MeanWait(), fifo.MeanWait())
	}
}

// The priority policy must serve the urgent job sooner than FIFO by
// preempting lower-priority residents at an iteration boundary.
func TestPriorityPreemption(t *testing.T) {
	fifo := runTrace(t, FIFO)
	prio := runTrace(t, Priority)
	jct := func(r *Result, id string) (jctv, wait int64) {
		for _, j := range r.Jobs {
			if j.ID == id {
				return int64(j.JCT), int64(j.Wait)
			}
		}
		t.Fatalf("%s: job %s missing", r.Policy, id)
		return 0, 0
	}
	fj, fw := jct(fifo, "urgent-alex")
	pj, pw := jct(prio, "urgent-alex")
	if pj >= fj || pw >= fw {
		t.Errorf("priority did not speed up urgent-alex: jct %d vs fifo %d, wait %d vs %d", pj, fj, pw, fw)
	}
	preempted := 0
	for _, j := range prio.Jobs {
		preempted += j.Preemptions
	}
	if preempted == 0 {
		t.Error("priority policy preempted nothing on the bundled trace")
	}
	for _, j := range fifo.Jobs {
		if j.Preemptions != 0 {
			t.Errorf("fifo preempted %s", j.ID)
		}
	}
}

// All admitted work completes: per-device iteration counts add up to
// the trace total, and the makespan covers every finish.
func TestWorkConservation(t *testing.T) {
	want := 0
	for _, tj := range workload.DefaultTrace() {
		if tj.ID == "too-big" {
			continue
		}
		want += tj.Iterations
	}
	for _, p := range Policies() {
		res := runTrace(t, p)
		got := 0
		for _, d := range res.Devices {
			got += d.Iterations
		}
		// Preemption re-queues at iteration boundaries without losing
		// completed work, so the executed-iteration total is exact.
		if got != want {
			t.Errorf("%s: executed %d iterations, trace specifies %d", p.Name, got, want)
		}
		for _, j := range res.Jobs {
			if !j.Rejected && int64(j.Finish) > int64(res.Makespan) {
				t.Errorf("%s: job %s finishes after makespan", p.Name, j.ID)
			}
		}
	}
}

func TestSchedulerValidation(t *testing.T) {
	if _, err := NewScheduler(Cluster{Device: hw.TeslaK40c, Devices: 0}, FIFO); err == nil {
		t.Error("zero-device cluster accepted")
	}
	if _, err := NewScheduler(testCluster(), Policy{Name: "broken"}); err == nil {
		t.Error("order-less policy accepted")
	}
	s, err := NewScheduler(testCluster(), FIFO)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run([]Job{{ID: "x", Network: "NoSuchNet", Batch: 1, Iterations: 1}}); err == nil ||
		!strings.Contains(err.Error(), "unknown network") {
		t.Errorf("unknown network not reported: %v", err)
	}
}

// TestDryRunUnknownManager checks an unknown manager name fails the
// dry run with an error that lists every manager.
func TestDryRunUnknownManager(t *testing.T) {
	_, err := DryRun("AlexNet", 32, "nope", hw.TeslaK40c)
	if err == nil || !strings.Contains(err.Error(), `unknown memory manager "nope"`) {
		t.Fatalf("err = %v, want an unknown-manager error", err)
	}
	for _, n := range core.Names() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q does not list %q", err, n)
		}
	}
}

func TestEstimatorMemoizes(t *testing.T) {
	e := NewEstimator()
	a, err := e.Estimate("AlexNet", 64, "naive", hw.TeslaK40c)
	if err != nil {
		t.Fatal(err)
	}
	b, err := e.Estimate("AlexNet", 64, "naive", hw.TeslaK40c)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("cached estimate differs: %+v vs %+v", a, b)
	}
	if a.PeakBytes <= 0 || a.IterTime <= 0 {
		t.Errorf("degenerate estimate %+v", a)
	}
	if e.Len() != 1 {
		t.Errorf("estimator holds %d entries after one distinct shape, want 1", e.Len())
	}
}

// The estimate memo is owned per scheduler: running a trace through
// one cluster must not populate (or leak into) another's cache.
func TestEstimatorScopedPerScheduler(t *testing.T) {
	s1, err := NewScheduler(testCluster(), FIFO)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewScheduler(Cluster{Device: hw.TitanXP, Devices: 2}, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(JobsFromTrace(workload.DefaultTrace())); err != nil {
		t.Fatal(err)
	}
	if s1.est.Len() == 0 {
		t.Error("scheduler's own estimator not populated by its run")
	}
	if n := s2.est.Len(); n != 0 {
		t.Errorf("second cluster's estimator holds %d entries without running anything", n)
	}
}

// A shared estimator is an explicit choice, not an ambient global.
func TestSharedEstimatorIsExplicit(t *testing.T) {
	est := NewEstimator()
	s1, err := NewSchedulerWithEstimator(testCluster(), FIFO, est)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := NewSchedulerWithEstimator(testCluster(), Packing, est)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s1.Run(JobsFromTrace(workload.DefaultTrace())); err != nil {
		t.Fatal(err)
	}
	n := est.Len()
	if n == 0 {
		t.Fatal("shared estimator not populated")
	}
	if _, err := s2.Run(JobsFromTrace(workload.DefaultTrace())); err != nil {
		t.Fatal(err)
	}
	if est.Len() != n {
		t.Errorf("replaying the same trace grew the shared memo from %d to %d distinct shapes", n, est.Len())
	}
}

func runDynamicTrace(t *testing.T, p Policy) *Result {
	t.Helper()
	s, err := NewScheduler(testCluster(), p)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(JobsFromTrace(workload.DefaultDynamicTrace()))
	if err != nil {
		t.Fatalf("%s: %v", p.Name, err)
	}
	return res
}

// Dynamic jobs replay deterministically under every policy.
func TestDynamicTraceDeterministic(t *testing.T) {
	for _, p := range Policies() {
		a := runDynamicTrace(t, p)
		b := runDynamicTrace(t, p)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: two runs of the dynamic trace differ", p.Name)
		}
	}
}

// A dynamic job's admission estimate is the worst case over its
// schedule's distinct shapes: the reservation equals the max per-shape
// dry-run peak, so the job can never OOM its device mid-run.
func TestDynamicJobWorstCaseAdmission(t *testing.T) {
	s, err := NewScheduler(testCluster(), FIFO)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run([]Job{
		{ID: "dyn", Network: "AlexNet", Batch: 512, BatchSchedule: []int{128, 512, 128}, Manager: "naive", Iterations: 3},
	})
	if err != nil {
		t.Fatal(err)
	}
	small, err := s.est.Estimate("AlexNet", 128, "naive", testCluster().Device)
	if err != nil {
		t.Fatal(err)
	}
	big, err := s.est.Estimate("AlexNet", 512, "naive", testCluster().Device)
	if err != nil {
		t.Fatal(err)
	}
	j := res.Jobs[0]
	if j.Rejected {
		t.Fatalf("dynamic job rejected: %s", j.Reason)
	}
	if j.Estimate.PeakBytes != big.PeakBytes {
		t.Errorf("admitted with peak %d, want the worst-case shape's %d", j.Estimate.PeakBytes, big.PeakBytes)
	}
	if res.Devices[j.Device].PeakReserved != big.PeakBytes {
		t.Errorf("device reserved %d, want worst-case %d", res.Devices[j.Device].PeakReserved, big.PeakBytes)
	}
	// Per-iteration durations follow the schedule, not the worst case:
	// the job's span is the sum of its shapes' iteration times.
	want := 2*small.IterTime + big.IterTime
	if got := sim.Duration(j.Finish - j.Start); got != want {
		t.Errorf("dynamic job span %v, want per-shape sum %v", got, want)
	}
}

// A dynamic job whose worst-case shape cannot fit any device is
// rejected up front, even when its common shape would fit.
func TestDynamicJobWorstCaseRejected(t *testing.T) {
	s, err := NewScheduler(testCluster(), FIFO)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run([]Job{
		{ID: "burst", Network: "AlexNet", Batch: 1024, BatchSchedule: []int{64, 1024}, Manager: "naive", Iterations: 2},
	})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Jobs[0].Rejected {
		t.Fatal("burst job admitted although its worst-case shape exceeds the device")
	}
	if !strings.Contains(res.Jobs[0].Reason, "1024") {
		t.Errorf("rejection reason %q does not name the offending shape", res.Jobs[0].Reason)
	}
}

// Bad schedules surface as errors, not silent admissions.
func TestDynamicJobScheduleValidation(t *testing.T) {
	s, err := NewScheduler(testCluster(), FIFO)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Run([]Job{
		{ID: "bad", Network: "AlexNet", Batch: 64, BatchSchedule: []int{64, 0}, Iterations: 2},
	}); err == nil || !strings.Contains(err.Error(), "positive") {
		t.Errorf("non-positive schedule entry not rejected: %v", err)
	}
}

// TestDiscardedLogsAreNeverBuilt: without a logger the exec's handler
// is enabled at no level, so its Info and Debug sites build nothing,
// while an Info-level logger still receives the records those sites
// gate — preemptions with their co-tenant sets — and no Debug ones.
func TestDiscardedLogsAreNeverBuilt(t *testing.T) {
	e, err := newExec(testCluster(), Priority, nil)
	if err != nil {
		t.Fatal(err)
	}
	ctx := context.Background()
	if e.lgInfo || e.lgDbg || e.lg.Enabled(ctx, slog.LevelError) {
		t.Fatalf("discarding logger is enabled: info %v, debug %v", e.lgInfo, e.lgDbg)
	}
	if h := e.lg.With("k", 1).WithGroup("g").Handler(); h.Enabled(ctx, slog.LevelError) || h.Handle(ctx, slog.Record{}) != nil {
		t.Fatal("a derived discarding logger is enabled or fails")
	}
	var buf bytes.Buffer
	s, err := NewScheduler(gangCluster(true), Priority)
	if err != nil {
		t.Fatal(err)
	}
	s.SetLogger(slog.New(slog.NewTextHandler(&buf, nil)))
	jobs := append(JobsFromTrace(workload.GangTrace()), Job{ID: "huge", Network: "AlexNet", Batch: 1024, Manager: "naive"})
	if _, err := s.Run(jobs); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{"job preempted", "cotenants=", "job rejected"} {
		if !strings.Contains(out, want) {
			t.Errorf("info log missing %q:\n%s", want, out[:min(len(out), 2000)])
		}
	}
	if strings.Contains(out, "job admitted") {
		t.Errorf("info log carries debug records:\n%s", out[:min(len(out), 2000)])
	}
}
