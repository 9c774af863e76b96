package sched

import (
	"bytes"
	"context"
	"fmt"
	"log/slog"
	"reflect"
	"sort"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/nnet"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/workload"
)

func coTenantCluster(crossjob bool) Cluster {
	// A deliberately modest host spill pool: enough to park a few
	// floors per device, not enough to admit the whole trace at once —
	// so pool exhaustion and the admission boundary are both exercised.
	return Cluster{Device: hw.TeslaK40c, Devices: workload.CoTenantClusterDevices,
		CrossJob: crossjob, HostSpillBytes: 8 * hw.GiB}
}

func runCoTenant(t *testing.T, p Policy, crossjob bool, est *Estimator) *Result {
	t.Helper()
	s, err := NewSchedulerWithEstimator(coTenantCluster(crossjob), p, est)
	if err != nil {
		t.Fatal(err)
	}
	res, err := s.Run(JobsFromTrace(workload.CoTenantTrace()))
	if err != nil {
		t.Fatalf("%s crossjob=%v: %v", p.Name, crossjob, err)
	}
	return res
}

// TestCrossJobAdmitsMoreCoResidents is the PR's acceptance criterion:
// on the co-tenant trace, interference-aware admission packs strictly
// more jobs per device than worst-case-in-isolation admission, with
// zero OOMs (any reservation overflow fails the run — the never-OOM
// guarantee is asserted inside admit) and strictly less queueing.
func TestCrossJobAdmitsMoreCoResidents(t *testing.T) {
	est := NewEstimator()
	for _, p := range []Policy{FIFO, Packing} {
		t.Run(p.Name, func(t *testing.T) {
			iso := runCoTenant(t, p, false, est)
			cj := runCoTenant(t, p, true, est)

			// Up-front admission control is identical: the same jobs are
			// rejected (worst-case shape vs an idle device) either way.
			for i := range iso.Jobs {
				if iso.Jobs[i].Rejected != cj.Jobs[i].Rejected {
					t.Fatalf("job %s rejection differs: isolated %v, crossjob %v",
						iso.Jobs[i].ID, iso.Jobs[i].Rejected, cj.Jobs[i].Rejected)
				}
			}
			isoRes, cjRes := 0, 0
			for di := range iso.Devices {
				isoRes += iso.Devices[di].PeakResidents
				cjRes += cj.Devices[di].PeakResidents
				if iso.Devices[di].SpillPeak != 0 {
					t.Fatalf("isolated run spilled %d bytes", iso.Devices[di].SpillPeak)
				}
				if cj.Devices[di].SpillPeak > cj.Cluster.HostSpillBytes {
					t.Fatalf("device %d spill peak %d exceeds pool %d",
						di, cj.Devices[di].SpillPeak, cj.Cluster.HostSpillBytes)
				}
			}
			if cjRes <= isoRes {
				t.Fatalf("cross-job planning admitted %d peak co-residents, isolated %d — want strictly more", cjRes, isoRes)
			}
			if cj.MeanWait() >= iso.MeanWait() {
				t.Fatalf("cross-job mean wait %v not below isolated %v", cj.MeanWait(), iso.MeanWait())
			}
			t.Logf("%s: peak co-residents %d -> %d, mean wait %v -> %v, makespan %v -> %v",
				p.Name, isoRes, cjRes, iso.MeanWait(), cj.MeanWait(), iso.Makespan, cj.Makespan)
		})
	}
}

// TestCrossJobReplayIsByteIdentical: the planner is deterministic, so
// two replays of the co-tenant trace — and their rendered forms — must
// match exactly at any co-tenancy level.
func TestCrossJobReplayIsByteIdentical(t *testing.T) {
	est := NewEstimator()
	a := runCoTenant(t, Packing, true, est)
	b := runCoTenant(t, Packing, true, est)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two cross-job replays diverge")
	}
	if fmt.Sprintf("%+v", a) != fmt.Sprintf("%+v", b) {
		t.Fatal("rendered cross-job replays diverge")
	}
}

// TestCrossJobSnapshotRoundTrip pauses a cross-job replay mid-flight —
// with co-residents and spilled floors on the devices — snapshots,
// restores, and demands the resumed result match the batch run exactly.
// The snapshot never carries planner internals; restore re-admits the
// residents and planner purity reproduces the plan.
func TestCrossJobSnapshotRoundTrip(t *testing.T) {
	c := coTenantCluster(true)
	jobs := JobsFromTrace(workload.CoTenantTrace())
	// Incremental appends must not move behind the watermark, so the
	// stream is replayed in arrival order (the batch baseline uses the
	// same order — input order is the determinism tie-break).
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Arrival < jobs[j].Arrival })
	est := NewEstimator()
	s, err := NewSchedulerWithEstimator(c, Packing, est)
	if err != nil {
		t.Fatal(err)
	}
	want, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	for _, split := range []int{1, 8, 17, 33, len(jobs) - 1} {
		inc, err := NewIncremental(c, Packing, est)
		if err != nil {
			t.Fatal(err)
		}
		for _, j := range jobs[:split] {
			if _, err := inc.Append(j); err != nil {
				t.Fatal(err)
			}
		}
		inc.AdvanceTo(jobs[split].Arrival)
		snap := mustSnapshot(t, inc)
		if !strings.Contains(snapText(snap), `"CrossJob":true`) {
			t.Fatalf("split %d: cross-job snapshot carries no cross-job cluster", split)
		}
		restored, err := RestoreIncremental(snap, est)
		if err != nil {
			t.Fatalf("split %d: restore: %v", split, err)
		}
		if again := mustSnapshot(t, restored); !bytes.Equal(again, snap) {
			t.Fatalf("split %d: snapshot not stable across restore", split)
		}
		for _, j := range jobs[split:] {
			if _, err := restored.Append(j); err != nil {
				t.Fatal(err)
			}
		}
		got, err := restored.Result()
		if err != nil {
			t.Fatalf("split %d: %v", split, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("split %d: snapshot-resumed cross-job result diverges from batch", split)
		}
	}
}

// TestNonCrossJobSnapshotRestoresIsolated: a snapshot of an isolated
// cluster carries no cross-job flag or planner demand and restores to
// isolated admission.
func TestNonCrossJobSnapshotRestoresIsolated(t *testing.T) {
	inc, err := NewIncremental(testCluster(), Packing, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range testJobs()[:4] {
		if _, err := inc.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	inc.AdvanceTo(sim.Time(70 * sim.Millisecond))
	snap := mustSnapshot(t, inc)
	for _, field := range []string{`"CrossJob":true`, `"Demand"`} {
		if strings.Contains(snapText(snap), field) {
			t.Fatalf("isolated snapshot carries %s", field)
		}
	}
	restored, err := RestoreIncremental(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	if restored.ex.crossjob || restored.ex.planners != nil {
		t.Fatal("isolated snapshot restored with cross-job planners")
	}
	// A planner demand on an isolated cluster is a malformed snapshot,
	// not a silent planner activation.
	bad := editSnap(t, snap, func(s *snapDoc) { s.Jobs[0]["Demand"] = map[string]int{"FloorBytes": 1} })
	if _, err := RestoreIncremental(bad, nil); err == nil || !strings.Contains(err.Error(), "planner demand on an isolated cluster") {
		t.Fatalf("decoder accepted a planner demand on an isolated cluster: %v", err)
	}
}

// TestCrossJobPreemptionDeterministic drives the priority policy —
// whose viability probe and victim scan route through the planner's
// hypothetical-eviction headroom — over the co-tenant trace, and
// demands the preempting replay stay byte-deterministic with
// preemptions actually occurring.
func TestCrossJobPreemptionDeterministic(t *testing.T) {
	est := NewEstimator()
	a := runCoTenant(t, Priority, true, est)
	b := runCoTenant(t, Priority, true, est)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("two preempting cross-job replays diverge")
	}
	pre := 0
	for _, j := range a.Jobs {
		pre += j.Preemptions
	}
	if pre == 0 {
		t.Fatal("priority policy preempted nothing on the co-tenant trace; the planner eviction probe went unexercised")
	}
	for di := range a.Devices {
		if a.Devices[di].SpillPeak > a.Cluster.HostSpillBytes {
			t.Fatalf("device %d spill peak %d exceeds pool %d", di, a.Devices[di].SpillPeak, a.Cluster.HostSpillBytes)
		}
	}
	t.Logf("priority: %d preemptions, makespan %v, mean wait %v", pre, a.Makespan, a.MeanWait())
}

// TestCrossJobSnapshotRejectsCorruption: hand-corrupted spill-pool
// and demand fields must fail restore with an error, never restore
// wrong or panic — the same discipline FuzzRestoreIncremental enforces
// on every record.
func TestCrossJobSnapshotRejectsCorruption(t *testing.T) {
	c := coTenantCluster(true)
	est := NewEstimator()
	inc, err := NewIncremental(c, Packing, est)
	if err != nil {
		t.Fatal(err)
	}
	jobs := JobsFromTrace(workload.CoTenantTrace())
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Arrival < jobs[j].Arrival })
	for _, j := range jobs[:8] {
		if _, err := inc.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	inc.AdvanceTo(jobs[8].Arrival)
	snap := mustSnapshot(t, inc)
	// Job 0 is resident and declares shareable tensors.
	tensor := func(s *snapDoc) map[string]any {
		d, _ := s.Jobs[0]["Demand"].(map[string]any)
		ts, _ := d["Tensors"].([]any)
		if len(ts) == 0 {
			t.Fatal("test premise: job 0 declares no tensor demands")
		}
		return ts[0].(map[string]any)
	}
	spill := func(v any) func(s *snapDoc) {
		return func(s *snapDoc) { s.Header["Cluster"].(map[string]any)["HostSpillBytes"] = v }
	}
	for _, tc := range []struct {
		name string
		edit func(s *snapDoc)
		want string
	}{
		{"zero spill pool", spill(0), "cross-job cluster with spill pool 0"},
		{"negative spill pool", spill(-1), "cross-job cluster with spill pool -1"},
		{"non-numeric spill pool", spill("x"), "cannot unmarshal string"},
		{"non-numeric tensor key", func(s *snapDoc) { tensor(s)["Key"] = "x" }, "cannot unmarshal string"},
		{"negative tensor key", func(s *snapDoc) { tensor(s)["Key"] = -1 }, "cannot unmarshal number -1"},
		{"zero-byte tensor demand", func(s *snapDoc) { tensor(s)["Bytes"] = 0 }, "tensor demand of 0 bytes"},
		{"floor above peak", func(s *snapDoc) {
			s.Jobs[0]["Demand"].(map[string]any)["FloorBytes"] = 1 << 50
		}, "outside [0, peak"},
		{"demand on an isolated cluster", func(s *snapDoc) {
			s.Header["Cluster"].(map[string]any)["CrossJob"] = false
		}, "job 0 has a planner demand on an isolated cluster"},
	} {
		_, err := RestoreIncremental(editSnap(t, snap, tc.edit), est)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestCrossJobIncrementalQueries covers the paused-replay query
// surface under cross-job planning: watermark/len accounting, O(1)
// finalized lookups, clone isolation, and single-job drains agreeing
// with the full result.
func TestCrossJobIncrementalQueries(t *testing.T) {
	c := coTenantCluster(true)
	est := NewEstimator()
	inc, err := NewIncremental(c, Packing, est)
	if err != nil {
		t.Fatal(err)
	}
	jobs := JobsFromTrace(workload.CoTenantTrace())
	sort.SliceStable(jobs, func(i, j int) bool { return jobs[i].Arrival < jobs[j].Arrival })
	for _, j := range jobs {
		if _, err := inc.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	mark := jobs[len(jobs)-1].Arrival
	inc.AdvanceTo(mark)
	if inc.Watermark() != mark {
		t.Fatalf("watermark %v, want %v", inc.Watermark(), mark)
	}
	if inc.Len() != len(jobs) {
		t.Fatalf("len %d, want %d", inc.Len(), len(jobs))
	}
	full, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	clone := &Incremental{ex: inc.ex.clone(), mark: inc.mark}
	for i := range jobs {
		jr, err := inc.JobResult(i)
		if err != nil {
			t.Fatalf("job %d: %v", i, err)
		}
		if !reflect.DeepEqual(jr, full.Jobs[i]) {
			t.Fatalf("job %d: single-job drain %+v diverges from full result %+v", i, jr, full.Jobs[i])
		}
	}
	// Draining job results above used throwaway clones; the paused
	// clone must still produce the identical full result.
	cr, err := clone.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(cr, full) {
		t.Fatal("clone result diverges from original")
	}
}

// TestCrossJobLoggingObservesDecisions: the structured log mirrors the
// admission flow (and never alters it), carrying the co-tenant set and
// planner figures the serve layer's operators grep for.
func TestCrossJobLoggingObservesDecisions(t *testing.T) {
	var buf bytes.Buffer
	lg := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	est := NewEstimator()

	s, err := NewSchedulerWithEstimator(coTenantCluster(true), Packing, est)
	if err != nil {
		t.Fatal(err)
	}
	s.SetLogger(lg)
	logged, err := s.Run(JobsFromTrace(workload.CoTenantTrace()))
	if err != nil {
		t.Fatal(err)
	}
	silent := runCoTenant(t, Packing, true, est)
	if !reflect.DeepEqual(logged, silent) {
		t.Fatal("logging changed the schedule")
	}
	out := buf.String()
	for _, want := range []string{"job admitted", "cotenants=", "requirement=", "job=", "device="} {
		if !strings.Contains(out, want) {
			t.Fatalf("log output missing %q:\n%s", want, out[:min(len(out), 2000)])
		}
	}

	// Incremental replays expose the same sink.
	inc, err := NewIncremental(coTenantCluster(true), Packing, est)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	inc.SetLogger(lg)
	for _, j := range JobsFromTrace(workload.CoTenantTrace())[:8] {
		if _, err := inc.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	inc.AdvanceTo(sim.Time(2 * sim.Second))
	if !strings.Contains(buf.String(), "job admitted") {
		t.Fatal("incremental replay logged no admissions")
	}
	if !lg.Enabled(context.Background(), slog.LevelDebug) {
		t.Fatal("test premise: debug handler disabled")
	}
}

func TestBuildDemandClampsToFunctionalBudget(t *testing.T) {
	tds := core.TensorDemands(program.Build(nnet.AlexNet(8)), 16)
	js := &jobState{seq: 7, est: core.Estimate{PeakBytes: 1 << 30, FloorBytes: 1 << 29}}
	d := buildDemand(js, tds)
	if d.Job != plannerID(js) || d.PeakBytes != js.est.PeakBytes || d.FloorBytes != js.est.FloorBytes {
		t.Fatalf("scalar demand mismatch: %+v", d)
	}
	var tb int64
	for _, td := range d.Tensors {
		tb += td.Bytes
	}
	if len(d.Tensors) == 0 || tb > js.est.PeakBytes-js.est.FloorBytes {
		t.Fatalf("shareable bytes %d in %d tensors, want some within the functional budget %d",
			tb, len(d.Tensors), js.est.PeakBytes-js.est.FloorBytes)
	}
	// A floor above the peak clamps rather than yielding a negative
	// budget, and an estimate without a floor is worst-case: floor ==
	// peak, so nothing is offered for sharing.
	for _, est := range []core.Estimate{
		{PeakBytes: 100, FloorBytes: 200},
		{PeakBytes: 1 << 30},
	} {
		d = buildDemand(&jobState{est: est}, tds)
		if d.FloorBytes != d.PeakBytes || len(d.Tensors) != 0 {
			t.Errorf("estimate %+v: floor not clamped to peak: %+v", est, d)
		}
	}
}
