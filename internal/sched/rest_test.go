package sched

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"repro/internal/hw"
	"repro/internal/memplan"
	"repro/internal/workload"
)

// rebuiltFree is the free-capacity summary recomputed from scratch:
// cap − used of every healthy device, ascending, and empty under
// CrossJob.
func rebuiltFree(e *exec) []int64 {
	var free []int64
	for _, d := range e.devs {
		if !e.crossjob && !d.failed {
			free = append(free, e.cap-d.used)
		}
	}
	slices.Sort(free)
	return free
}

// summaryMismatch recomputes the preemption summary from scratch — the
// distinct priorities of every added job, and per device the bytes its
// residents below each hold, kept only under isolated preemptive
// admission — and describes the first difference from e's, or returns
// "".
func summaryMismatch(e *exec) string {
	var prio []int
	if !e.crossjob && e.policy.Preemptive {
		for _, js := range e.states {
			prio = append(prio, js.Priority)
		}
		slices.Sort(prio)
		prio = slices.Compact(prio)
	}
	if !slices.Equal(e.prio, prio) {
		return fmt.Sprintf("priority classes %v, rebuild gives %v", e.prio, prio)
	}
	for di, d := range e.devs {
		var lower []int64
		for _, p := range prio {
			var b int64
			for _, r := range d.resident {
				if r.Priority < p {
					b += r.est.PeakBytes
				}
			}
			lower = append(lower, b)
		}
		if !slices.Equal(d.lower, lower) {
			return fmt.Sprintf("gpu%d lower-priority bytes %v, rebuild gives %v", di, d.lower, lower)
		}
	}
	return ""
}

// plannerMismatch rebuilds every CrossJob device planner from scratch —
// a fresh planner admitting the device's residents — and describes the
// first difference from e's in the requirement, the spill use or a
// resident's grant, or returns "". An elastic gang shrink relies on it:
// each surviving member's planner still plans the job.
func plannerMismatch(e *exec) string {
	if !e.crossjob {
		return ""
	}
	for di, d := range e.devs {
		fresh, err := memplan.New(e.cap, e.spillCap, spillLink)
		if err != nil {
			return err.Error()
		}
		for _, r := range d.resident {
			if _, err := fresh.Admit(r.demand); err != nil {
				return fmt.Sprintf("gpu%d: re-admitting %s: %v", di, r.ID, err)
			}
		}
		pl := e.planners[di]
		if pl.Requirement() != fresh.Requirement() || pl.SpillUsed() != fresh.SpillUsed() {
			return fmt.Sprintf("gpu%d requirement %d spill %d, rebuild gives %d and %d",
				di, pl.Requirement(), pl.SpillUsed(), fresh.Requirement(), fresh.SpillUsed())
		}
		for _, r := range d.resident {
			got, ok := pl.Grant(r.demand.Job)
			if want, _ := fresh.Grant(r.demand.Job); !ok || got != want {
				return fmt.Sprintf("gpu%d grant of %s is %+v (member %v), rebuild gives %+v", di, r.ID, got, ok, want)
			}
		}
	}
	return ""
}

// stepAtRest replays jobs one event at a time and fails at the first
// event after which the admission pass is not at rest — the condition
// that lets the event loop skip the pass at boundaries that vacate
// nothing — or the free-capacity summary, the preemption summary or a
// CrossJob device planner differs from a rebuild. The stepped replay
// must also equal the batch run, so the checks themselves are proven
// observation-only.
func stepAtRest(t *testing.T, name string, c Cluster, p Policy, est *Estimator, jobs []Job) *Result {
	t.Helper()
	e, err := newExec(c, p, est)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	for _, j := range jobs {
		if _, err := e.addJob(j); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
	}
	for i := range e.states {
		e.postArrival(i)
	}
	e.postFaults()
	for n := 0; len(e.q) > 0; n++ {
		ev := e.q.pop()
		e.step(ev)
		if !e.atRest() {
			t.Fatalf("%s: admission pass not at rest after event %d (t=%d class=%d job=%d dev=%d)",
				name, n, int64(ev.at), ev.class, ev.job, ev.dev)
		}
		if want := rebuiltFree(e); !slices.Equal(e.free, want) {
			t.Fatalf("%s: free-capacity summary after event %d (t=%d class=%d job=%d dev=%d) is %v, rebuild gives %v",
				name, n, int64(ev.at), ev.class, ev.job, ev.dev, e.free, want)
		}
		if bad := summaryMismatch(e); bad != "" {
			t.Fatalf("%s: preemption summary after event %d (t=%d class=%d job=%d dev=%d): %s",
				name, n, int64(ev.at), ev.class, ev.job, ev.dev, bad)
		}
		if bad := plannerMismatch(e); bad != "" {
			t.Fatalf("%s: device planner after event %d (t=%d class=%d job=%d dev=%d): %s",
				name, n, int64(ev.at), ev.class, ev.job, ev.dev, bad)
		}
	}
	got, gotErr := e.result()
	s, err := NewSchedulerWithEstimator(c, p, est)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	want, wantErr := s.Run(jobs)
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) || !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: stepped replay diverges from the batch run:\ngot  %+v (%v)\nwant %+v (%v)", name, got, gotErr, want, wantErr)
	}
	return got
}

// TestAdmissionAtRestAfterEveryEvent steps every bundled trace under
// every policy and asserts the pass is at rest after each event.
func TestAdmissionAtRestAfterEveryEvent(t *testing.T) {
	faultC, faultJobs := faultCluster(t)
	traces := []struct {
		name string
		c    Cluster
		jobs []Job
	}{
		{"default", testCluster(), JobsFromTrace(workload.DefaultTrace())},
		{"dynamic", testCluster(), JobsFromTrace(workload.DefaultDynamicTrace())},
		{"gang", gangCluster(true), JobsFromTrace(workload.GangTrace())},
		{"cotenant", coTenantCluster(false), JobsFromTrace(workload.CoTenantTrace())},
		{"cotenant-crossjob", coTenantCluster(true), JobsFromTrace(workload.CoTenantTrace())},
		{"faults", faultC, faultJobs},
	}
	est := NewEstimator()
	for _, tr := range traces {
		for _, p := range Policies() {
			stepAtRest(t, tr.name+"/"+p.Name, tr.c, p, est, tr.jobs)
		}
	}
}

// restShapes are the job shapes of the generated traces; AlexNet at
// batch 1024 exceeds the device even alone and is rejected up front.
var restShapes = []Job{
	{Network: "ResNet50", Batch: 32, Manager: "naive"},
	{Network: "VGG16", Batch: 32, Manager: "caffe"},
	{Network: "AlexNet", Batch: 512, Manager: "naive"},
	{Network: "AlexNet", Batch: 256, Manager: "superneurons"},
	{Network: "AlexNet", Batch: 128, Manager: "naive"},
	{Network: "AlexNet", Batch: 64, Manager: "naive"},
	{Network: "AlexNet", Batch: 1024, Manager: "naive"},
	{Network: "AlexNet", Batch: 512, BatchSchedule: []int{128, 512, 128}, Manager: "superneurons"},
	{Network: "AlexNet", Batch: 256, BatchSchedule: []int{64, 256}, Manager: "naive"},
}

// genRestTrace draws a small cluster and job stream from seed
// (xorshift64): 1–3 devices, mixed priorities so the priority policy
// preempts, gangs up to one wider than the cluster, dynamic schedules,
// cross-job planning on some clusters and a fail/recover cycle on
// others.
func genRestTrace(seed uint64) (Cluster, []Job) {
	x := seed*0x9e3779b97f4a7c15 + 1
	next := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	c := Cluster{Device: hw.TeslaK40c, Devices: 1 + next(3), Topology: hw.DefaultTopology(), Overlap: next(2) == 0}
	if next(3) == 0 {
		c.CrossJob, c.HostSpillBytes = true, int64(1+next(8))*hw.GiB
	}
	if next(2) == 0 {
		dev, at := next(c.Devices), ms(int64(50+next(1500)))
		c.Faults.Events = []FaultEvent{{At: at, Device: dev}, {At: at + ms(int64(1+next(2000))), Device: dev, Recover: true}}
	}
	jobs := make([]Job, 4+next(7))
	arrival := int64(0)
	for i := range jobs {
		j := restShapes[next(len(restShapes))]
		j.ID = fmt.Sprintf("g%d", i)
		j.Priority = next(10)
		j.Iterations = 1 + next(12)
		j.GPUs = 1
		if next(3) == 0 {
			j.GPUs = 1 + next(c.Devices+1)
		}
		arrival += int64(next(200))
		j.Arrival = ms(arrival)
		jobs[i] = j
	}
	return c, jobs
}

// TestAdmissionAtRestGenerated is the every-event check over generated
// traces under every policy; the generator must reach every mechanism
// that changes what the pass reads.
func TestAdmissionAtRestGenerated(t *testing.T) {
	est := NewEstimator()
	seen := map[string]int{}
	for seed := uint64(1); seed <= 100; seed++ {
		c, jobs := genRestTrace(seed)
		for _, p := range Policies() {
			res := stepAtRest(t, fmt.Sprintf("seed %d/%s", seed, p.Name), c, p, est, jobs)
			if res == nil {
				continue // the batch run failed the same way
			}
			if c.CrossJob {
				seen["crossjob"]++
			}
			for _, j := range res.Jobs {
				if len(j.Gang) > 1 {
					seen["gang"]++
				}
				if j.Rejected {
					seen["rejected"]++
				}
				seen["preempted"] += j.Preemptions
				seen["restored"] += j.Restores
				seen["shrunk"] += j.Shrinks
				if c.CrossJob {
					seen["crossjob shrink"] += j.Shrinks
				}
			}
		}
	}
	for _, k := range []string{"crossjob", "gang", "rejected", "preempted", "restored", "shrunk", "crossjob shrink"} {
		if seen[k] == 0 {
			t.Errorf("no generated trace exercised %s (%v)", k, seen)
		}
	}
}
