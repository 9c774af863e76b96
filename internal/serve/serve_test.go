package serve

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sched"
	"repro/internal/workload"
)

func testCluster() sched.Cluster {
	return sched.Cluster{Device: hw.TeslaK40c, Devices: 2}
}

// small returns a cheap submission (one dry-run shape shared by most
// tests of a service instance).
func small(tenant, id string) SubmitRequest {
	return SubmitRequest{Tenant: tenant, ID: id, Network: "AlexNet", Batch: 16, Iterations: 1}
}

func mustNew(t *testing.T, cfg Config) *Service {
	t.Helper()
	cfg.Cluster = testCluster()
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// The sequencer drains tenants round-robin: a tenant that floods the
// queue first cannot push another tenant's jobs behind its own. With
// several shards, Advance passes over the shards in index order and
// round-robins inside each; its cap counts across the whole pass. The
// tenants hash to shards 3 (alpha, beta), 2 (gamma) and 1 (delta,
// epsilon) of four.
func TestFairnessRoundRobinAcrossTenants(t *testing.T) {
	jobs := map[string]int{"alpha": 3, "beta": 2, "gamma": 2, "delta": 1, "epsilon": 1}
	for _, tc := range []struct {
		shards int
		want   []string
	}{
		{1, []string{"alpha/j0", "beta/j0", "gamma/j0", "delta/j0", "epsilon/j0", "alpha/j1", "beta/j1", "gamma/j1", "alpha/j2"}},
		{4, []string{"delta/j0", "epsilon/j0", "gamma/j0", "gamma/j1", "alpha/j0", "beta/j0", "alpha/j1", "beta/j1", "alpha/j2"}},
	} {
		t.Run(fmt.Sprintf("shards=%d", tc.shards), func(t *testing.T) {
			s := mustNew(t, Config{Manual: true, Shards: tc.shards})
			for _, tenant := range []string{"alpha", "beta", "gamma", "delta", "epsilon"} {
				for k := 0; k < jobs[tenant]; k++ {
					if _, err := s.Submit(small(tenant, fmt.Sprintf("j%d", k))); err != nil {
						t.Fatal(err)
					}
				}
			}
			// The first three jobs span two shards when there are four.
			if n := s.Advance(3); n != 3 {
				t.Fatalf("Advance(3) sequenced %d jobs, want 3", n)
			}
			if n := s.Advance(0); n != len(tc.want)-3 {
				t.Fatalf("Advance(0) sequenced %d jobs, want %d", n, len(tc.want)-3)
			}
			trace, err := workload.ParseTrace(strings.NewReader(s.ReplayLog()))
			if err != nil {
				t.Fatal(err)
			}
			var order []string
			for _, j := range trace {
				order = append(order, j.ID)
			}
			if !reflect.DeepEqual(order, tc.want) {
				t.Errorf("sequenced order %v, want %v", order, tc.want)
			}
			for i, j := range trace {
				if j.ArrivalMS != int64(i) {
					t.Errorf("job %d arrival %dms, want %d (1ms spacing)", i, j.ArrivalMS, i)
				}
			}
		})
	}
}

func TestTenantQuota(t *testing.T) {
	s := mustNew(t, Config{Manual: true, TenantQuota: 2})
	for k := 0; k < 2; k++ {
		if _, err := s.Submit(small("q", fmt.Sprintf("j%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(small("q", "j2")); !errors.Is(err, ErrQuota) {
		t.Errorf("third job of quota-2 tenant: err = %v, want ErrQuota", err)
	}
	// The quota is per tenant: another tenant still gets in.
	if _, err := s.Submit(small("other", "j0")); err != nil {
		t.Errorf("other tenant blocked by q's quota: %v", err)
	}
	// Sequencing does not refund the lifetime quota.
	s.Advance(0)
	if _, err := s.Submit(small("q", "j3")); !errors.Is(err, ErrQuota) {
		t.Errorf("quota refunded by sequencing: err = %v, want ErrQuota", err)
	}
}

func TestBoundedAdmissionQueue(t *testing.T) {
	s := mustNew(t, Config{Manual: true, QueueDepth: 3})
	for k := 0; k < 3; k++ {
		if _, err := s.Submit(small("t", fmt.Sprintf("j%d", k))); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := s.Submit(small("t", "j3")); !errors.Is(err, ErrQueueFull) {
		t.Errorf("submit beyond queue depth: err = %v, want ErrQueueFull", err)
	}
	// Draining the queue frees capacity.
	s.Advance(1)
	if _, err := s.Submit(small("t", "j3")); err != nil {
		t.Errorf("submit after drain-by-one: %v", err)
	}
}

func TestSubmitValidation(t *testing.T) {
	s := mustNew(t, Config{Manual: true})
	cases := []struct {
		name string
		req  SubmitRequest
	}{
		{"unknown network", SubmitRequest{Network: "NopeNet", Batch: 4}},
		{"zero batch", SubmitRequest{Network: "AlexNet"}},
		{"bad schedule", SubmitRequest{Network: "AlexNet", Schedule: "16x0"}},
		{"unknown manager", SubmitRequest{Network: "AlexNet", Batch: 4, Manager: "nope"}},
		{"whitespace tenant", SubmitRequest{Tenant: "a b", Network: "AlexNet", Batch: 4}},
		{"unicode space id", SubmitRequest{ID: "a\u00a0b", Network: "AlexNet", Batch: 4}},
		{"slash tenant", SubmitRequest{Tenant: "a/b", Network: "AlexNet", Batch: 4}},
		{"hash id", SubmitRequest{ID: "x#y", Network: "AlexNet", Batch: 4}},
		{"non-UTF-8 tenant", SubmitRequest{Tenant: "t\xff", Network: "AlexNet", Batch: 4}},
		{"non-UTF-8 id", SubmitRequest{ID: "a\xc0", Network: "AlexNet", Batch: 4}},
		{"non-UTF-8 idempotency key", SubmitRequest{IdempotencyKey: "k\xfe", Network: "AlexNet", Batch: 4}},
		{"missing network", SubmitRequest{Batch: 4}},
	}
	for _, c := range cases {
		if _, err := s.Submit(c.req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", c.name, err)
		}
	}
	// The unknown-manager error names every manager the service accepts.
	_, err := s.Submit(SubmitRequest{Network: "AlexNet", Batch: 4, Manager: "nope"})
	for _, n := range core.Names() {
		if !strings.Contains(err.Error(), n) {
			t.Errorf("error %q does not list %q", err, n)
		}
	}
	if _, err := s.Submit(small("t", "dup")); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Submit(small("t", "dup")); !errors.Is(err, ErrDuplicateID) {
		t.Errorf("duplicate id: err = %v, want ErrDuplicateID", err)
	}
}

func TestStatusLifecycle(t *testing.T) {
	s := mustNew(t, Config{Manual: true})
	st, err := s.Submit(small("t", "a"))
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateQueued || st.Seq != -1 || st.QueuePosition != 1 {
		t.Errorf("fresh submission status = %+v, want queued at position 1", st)
	}
	st2, _ := s.Submit(small("t", "b"))
	if st2.QueuePosition != 2 {
		t.Errorf("second submission position = %d, want 2", st2.QueuePosition)
	}
	// Queries report the queue positions too, until sequencing.
	if st, err := s.Status("t/b"); err != nil || st.State != StateQueued || st.QueuePosition != 2 {
		t.Errorf("queued status = %+v (err %v), want queued at position 2", st, err)
	}
	if jobs, err := s.Jobs(); err != nil || len(jobs) != 2 || jobs[0].QueuePosition != 1 || jobs[1].QueuePosition != 2 {
		t.Errorf("queued job list = %+v (err %v), want positions 1 and 2", jobs, err)
	}
	s.Advance(0)
	st, err = s.Status("t/a")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateScheduled || st.Seq != 0 || st.Result == nil {
		t.Errorf("sequenced status = %+v, want scheduled seq 0 with result", st)
	}
	if st.Result.Estimate.PeakBytes <= 0 || st.Result.JCT <= 0 {
		t.Errorf("scheduled result lacks estimate/JCT: %+v", st.Result)
	}
	if _, err := s.Status("t/nope"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("unknown job: err = %v, want ErrUnknownJob", err)
	}
}

// A job too large for any device is accepted into the log and then
// deterministically rejected by the scheduler's admission control —
// the same outcome a trace replay produces.
func TestOversizedJobRejectedDeterministically(t *testing.T) {
	s := mustNew(t, Config{Manual: true})
	if _, err := s.Submit(SubmitRequest{Tenant: "t", ID: "big", Network: "AlexNet", Batch: 1024}); err != nil {
		t.Fatal(err)
	}
	s.Advance(0)
	st, err := s.Status("t/big")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRejected || st.Reason == "" {
		t.Errorf("oversized job status = %+v, want rejected with reason", st)
	}
}

func TestDrainStopsAdmission(t *testing.T) {
	s := mustNew(t, Config{Manual: true})
	if _, err := s.Submit(small("t", "a")); err != nil {
		t.Fatal(err)
	}
	res, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 1 {
		t.Errorf("drain flushed %d jobs, want 1", len(res.Jobs))
	}
	if _, err := s.Submit(small("t", "late")); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: err = %v, want ErrDraining", err)
	}
	select {
	case <-s.Drained():
	default:
		t.Error("Drained channel not closed after Drain")
	}
	// Idempotent: a second drain returns the same result.
	res2, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if res != res2 {
		t.Error("second Drain recomputed the result")
	}
}

// The heart of the tentpole: traffic submitted concurrently by many
// goroutines, sequenced by the service, must replay byte-identically
// through the same path cmd/snsched uses.
func TestConcurrentTrafficReplaysByteIdentical(t *testing.T) {
	s := mustNew(t, Config{})

	templates := []SubmitRequest{
		{Network: "AlexNet", Batch: 16, Iterations: 2},
		{Network: "AlexNet", Batch: 32, Iterations: 1, Priority: 5},
		{Network: "AlexNet", Schedule: "16x2,32", Iterations: 3, Manager: "superneurons"},
		{Network: "AlexNet", Batch: 1024}, // deterministically rejected
	}
	const clients, each = 6, 4
	var wg sync.WaitGroup
	for ci := 0; ci < clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				req := templates[(ci+k)%len(templates)]
				req.Tenant = fmt.Sprintf("c%d", ci)
				req.ID = fmt.Sprintf("j%d", k)
				if _, err := s.Submit(req); err != nil {
					t.Errorf("submit c%d/j%d: %v", ci, k, err)
				}
			}
		}(ci)
	}
	wg.Wait()
	if n := s.WaitSequenced(clients*each, 5*time.Second); n != clients*each {
		t.Fatalf("sequenced %d jobs, want %d", n, clients*each)
	}
	final, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}

	// An offline replay of the log through a fresh scheduler (the
	// cmd/snsched path) reproduces every per-job result byte-identically.
	trace, err := workload.ParseTrace(strings.NewReader(s.ReplayLog()))
	if err != nil {
		t.Fatalf("request log is not a valid trace: %v", err)
	}
	fresh, err := sched.NewScheduler(testCluster(), sched.Packing)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := fresh.Run(sched.JobsFromTrace(trace))
	if err != nil {
		t.Fatal(err)
	}
	got, want := fmt.Sprintf("%+v", replayed), fmt.Sprintf("%+v", final)
	if got != want {
		t.Errorf("offline replay differs from service result:\n--- replay\n%s\n--- service\n%s", got, want)
	}
	if !reflect.DeepEqual(replayed.Jobs, final.Jobs) {
		t.Error("per-job results differ between service and replay")
	}
}

// Concurrent submitters, status pollers and metrics readers against a
// draining service: the -race CI job's main course.
func TestConcurrentSubmitAndQuery(t *testing.T) {
	s := mustNew(t, Config{QueueDepth: 8, TenantQuota: 6})
	var wg sync.WaitGroup
	for ci := 0; ci < 4; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for k := 0; k < 6; k++ {
				req := small(fmt.Sprintf("w%d", ci), fmt.Sprintf("j%d", k))
				for {
					_, err := s.Submit(req)
					if errors.Is(err, ErrQueueFull) {
						time.Sleep(time.Millisecond)
						continue
					}
					if err != nil {
						t.Errorf("submit: %v", err)
					}
					break
				}
			}
		}(ci)
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for k := 0; k < 20; k++ {
				if _, err := s.Metrics(); err != nil {
					t.Errorf("metrics: %v", err)
				}
				_, _ = s.Status("w0/j0")
				_, _ = s.Jobs()
			}
		}()
	}
	wg.Wait()
	s.WaitSequenced(24, 5*time.Second)
	res, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 24 {
		t.Errorf("drained %d jobs, want 24", len(res.Jobs))
	}
	m, err := s.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	if !m.Draining || m.JobsSequenced != 24 || m.JobsQueued != 0 {
		t.Errorf("post-drain metrics = %+v", m)
	}
	if len(m.Tenants) != 4 {
		t.Errorf("tenant stats = %v, want 4 tenants", m.Tenants)
	}
	for tn, st := range m.Tenants {
		if st.Accepted != 6 || st.Sequenced != 6 || st.Queued != 0 {
			t.Errorf("tenant %s stats = %+v, want 6 accepted/sequenced", tn, st)
		}
	}
}

func TestWaitSequencedTimesOut(t *testing.T) {
	s := mustNew(t, Config{Manual: true})
	if _, err := s.Submit(small("t", "a")); err != nil {
		t.Fatal(err)
	}
	t0 := time.Now()
	if n := s.WaitSequenced(1, 30*time.Millisecond); n != 0 {
		t.Errorf("WaitSequenced returned %d with a manual sequencer, want 0", n)
	}
	if time.Since(t0) < 25*time.Millisecond {
		t.Error("WaitSequenced returned before its timeout")
	}
}

func TestAutoAssignedIDs(t *testing.T) {
	s := mustNew(t, Config{Manual: true})
	st, err := s.Submit(SubmitRequest{Network: "AlexNet", Batch: 16})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "anon/j0" || st.Tenant != "anon" {
		t.Errorf("auto id = %q tenant %q, want anon/j0", st.ID, st.Tenant)
	}
	st2, _ := s.Submit(SubmitRequest{Network: "AlexNet", Batch: 16})
	if st2.ID == st.ID {
		t.Error("auto ids collide")
	}
}

// A request without an id can never fail as a duplicate, even when a
// user-chosen id squats on the auto-id namespace.
func TestAutoIDsDodgeUserChosenIDs(t *testing.T) {
	s := mustNew(t, Config{Manual: true})
	if _, err := s.Submit(small("anon", "j1")); err != nil { // squats anon/j1
		t.Fatal(err)
	}
	var ids []string
	for k := 0; k < 3; k++ {
		st, err := s.Submit(SubmitRequest{Network: "AlexNet", Batch: 16})
		if err != nil {
			t.Fatalf("auto-id submission %d: %v", k, err)
		}
		ids = append(ids, st.ID)
	}
	seen := map[string]bool{"anon/j1": true}
	for _, id := range ids {
		if seen[id] {
			t.Errorf("auto id %q collides", id)
		}
		seen[id] = true
	}
}

// A latched replay-append failure is terminal for result queries: the
// drain, the checkpoint and the status of every job the replay has not
// finalized report it instead of a schedule.
func TestReplayAppendFailureLatches(t *testing.T) {
	s := mustNew(t, Config{Manual: true})
	if _, err := s.Submit(small("t", "a")); err != nil {
		t.Fatal(err)
	}
	latched := errors.New("replay append failed")
	s.mu.Lock()
	s.incErr = latched
	s.mu.Unlock()
	if _, err := s.Drain(); !errors.Is(err, latched) {
		t.Errorf("drain err = %v, want the latched error", err)
	}
	if _, err := s.Checkpoint(); !errors.Is(err, latched) {
		t.Errorf("checkpoint err = %v, want the latched error", err)
	}
	st, err := s.Status("t/a")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateRejected || st.Reason != latched.Error() {
		t.Errorf("status %+v, want rejected with the latched reason", st)
	}
}

// Jobs renders every sequenced job from one replay of the log. It
// must list exactly what one Status call per job returns, in every
// state the service can be in.
func TestJobsMatchesStatus(t *testing.T) {
	s := mustNew(t, Config{Manual: true, Shards: 2, SnapshotEvery: 2, SpacingMS: 1000})
	for i := 0; i < 8; i++ {
		req := small(fmt.Sprintf("t%d", i%3), fmt.Sprintf("j%d", i))
		if i%4 == 3 {
			req.Iterations = 400 // still running at the watermark
		}
		if i == 5 {
			req.Batch = 4096 // fits no device: rejected up front
		}
		if _, err := s.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	match := func(when string) map[JobState]int {
		t.Helper()
		all, err := s.Jobs()
		if err != nil {
			t.Fatal(err)
		}
		if len(all) != 8 {
			t.Fatalf("%s: Jobs listed %d jobs, want 8", when, len(all))
		}
		states := map[JobState]int{}
		for _, got := range all {
			want, err := s.Status(got.ID)
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Errorf("%s: Jobs lists %+v, Status says %+v", when, got, want)
			}
			states[got.State]++
		}
		return states
	}

	if states := match("before any advance"); states[StateQueued] != 8 {
		t.Errorf("before any advance: state counts %v, want 8 queued", states)
	}

	s.Advance(6)
	s.mu.Lock()
	finalized := 0
	for i := range s.log {
		if _, ok := s.inc.Finalized(i); ok {
			finalized++
		}
	}
	active := len(s.log) - finalized
	s.mu.Unlock()
	if finalized == 0 || active == 0 {
		t.Fatalf("after 6 merges: %d finalized, %d active; the test needs both", finalized, active)
	}
	if states := match("finalized and active mixed"); states[StateQueued] != 2 {
		t.Errorf("finalized and active mixed: state counts %v, want 2 queued", states)
	}

	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	if states := match("after drain"); states[StateRejected] != 1 || states[StateScheduled] != 7 {
		t.Errorf("after drain: state counts %v, want 1 rejected and 7 scheduled", states)
	}

	latched := errors.New("replay append failed")
	s.mu.Lock()
	s.incErr = latched
	s.mu.Unlock()
	if states := match("with a latched replay error"); states[StateRejected] != 8 {
		t.Errorf("with a latched replay error: state counts %v, want 8 rejected", states)
	}
	st, err := s.Status("t0/j0")
	if err != nil {
		t.Fatal(err)
	}
	if st.Reason != latched.Error() {
		t.Errorf("with a latched replay error: reason %q, want %q", st.Reason, latched.Error())
	}
}
