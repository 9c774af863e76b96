package serve

import (
	"errors"
	"fmt"
	"reflect"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/workload"
)

// TestChaosCheckpointDuringDrain races Service.Checkpoint against
// concurrent submissions and the drain itself (run under -race in CI).
// Every checkpoint that succeeds mid-chaos must be a coherent
// compaction artifact: restoring it and appending the request-log
// suffix it does not cover reproduces the drained result exactly. A
// checkpoint interleaved with Drain may also fail cleanly — what it
// must never do is race, corrupt its payload, or capture a state the
// log suffix cannot extend.
func TestChaosCheckpointDuringDrain(t *testing.T) {
	s := mustNew(t, Config{QueueDepth: 16, Shards: 3, SnapshotEvery: 2, TenantQuota: 8})

	const tenants, perTenant = 4, 8
	var wg sync.WaitGroup
	for ci := 0; ci < tenants; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for k := 0; k < perTenant; k++ {
				req := small(fmt.Sprintf("w%d", ci), fmt.Sprintf("j%d", k))
				req.Iterations = 1 + k%3
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

	// Checkpoint continuously while traffic is in flight and while the
	// drain below flushes the shards.
	stop := make(chan struct{})
	var ckpts [][]byte
	var ckptMu sync.Mutex
	var cwg sync.WaitGroup
	for r := 0; r < 3; r++ {
		cwg.Add(1)
		go func() {
			defer cwg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				data, err := s.Checkpoint()
				if err != nil {
					t.Errorf("checkpoint: %v", err)
					return
				}
				ckptMu.Lock()
				ckpts = append(ckpts, data)
				ckptMu.Unlock()
				time.Sleep(time.Millisecond)
			}
		}()
	}

	wg.Wait()
	s.WaitSequenced(tenants*perTenant, 5*time.Second)
	final, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	// One more checkpoint strictly after the drain: it covers the whole
	// log, so its resume needs no suffix at all.
	post, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	close(stop)
	cwg.Wait()
	ckpts = append(ckpts, post)

	if len(final.Jobs) != tenants*perTenant {
		t.Fatalf("drained %d jobs, want %d", len(final.Jobs), tenants*perTenant)
	}
	trace, err := workload.ParseTrace(strings.NewReader(s.ReplayLog()))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != tenants*perTenant {
		t.Fatalf("request log holds %d jobs, want %d", len(trace), tenants*perTenant)
	}

	// Every snapshot taken during the chaos restores and resumes to the
	// exact drained result. Restores share one estimator: the dry runs
	// are pure, so sharing cannot change any outcome, only the cost.
	est := sched.NewEstimator()
	seen := map[int]bool{}
	for i, data := range ckpts {
		cs, err := RestoreCheckpoint(data, est)
		if err != nil {
			t.Fatalf("checkpoint %d: restore: %v", i, err)
		}
		if cs.Seq < 0 || cs.Seq > len(trace) {
			t.Fatalf("checkpoint %d covers seq %d of a %d-entry log", i, cs.Seq, len(trace))
		}
		// Resuming is the expensive half; replay each distinct log
		// position once (concurrent checkpointers mostly capture
		// duplicate positions).
		if seen[cs.Seq] {
			continue
		}
		seen[cs.Seq] = true
		resumed, err := cs.Resume(sched.JobsFromTrace(trace[cs.Seq:]))
		if err != nil {
			t.Fatalf("checkpoint %d (seq %d): resume: %v", i, cs.Seq, err)
		}
		if !reflect.DeepEqual(resumed, final) {
			t.Fatalf("checkpoint %d (seq %d): resumed result diverges from drain", i, cs.Seq)
		}
	}
	if !seen[len(trace)] {
		t.Error("post-drain checkpoint did not cover the full log")
	}
}

// TestChaosDrainRacesSubmit hammers Drain from several goroutines
// while submitters are still pushing: exactly one drain result is
// computed, late submissions fail with ErrDraining, and the drained
// result replays the request log byte for byte.
func TestChaosDrainRacesSubmit(t *testing.T) {
	s := mustNew(t, Config{QueueDepth: 32, Shards: 2})

	var wg sync.WaitGroup
	for ci := 0; ci < 4; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			for k := 0; k < 10; k++ {
				req := small(fmt.Sprintf("w%d", ci), fmt.Sprintf("j%d", k))
				_, err := s.Submit(req)
				switch {
				case err == nil:
				case errors.Is(err, ErrQueueFull), errors.Is(err, ErrDraining):
					// Both are legitimate mid-drain outcomes; the log
					// below is the source of truth for what got in.
				default:
					t.Errorf("submit: %v", err)
				}
			}
		}(ci)
	}

	results := make([]*sched.Result, 8)
	var dwg sync.WaitGroup
	for r := range results {
		dwg.Add(1)
		go func(r int) {
			defer dwg.Done()
			res, err := s.Drain()
			if err != nil {
				t.Errorf("drain %d: %v", r, err)
				return
			}
			results[r] = res
		}(r)
	}
	dwg.Wait()
	wg.Wait()

	for _, r := range results[1:] {
		if r != results[0] {
			t.Fatal("concurrent drains computed distinct results")
		}
	}
	if results[0] == nil {
		t.Fatal("no drain result")
	}
	// The drained result is exactly the replay of the accumulated log.
	trace, err := workload.ParseTrace(strings.NewReader(s.ReplayLog()))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != len(results[0].Jobs) {
		t.Fatalf("log holds %d jobs, drain scheduled %d", len(trace), len(results[0].Jobs))
	}
	sch, err := sched.NewScheduler(s.Cluster(), sched.Packing)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := sch.Run(sched.JobsFromTrace(trace))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(replayed, results[0]) {
		t.Fatal("drained result diverges from a from-scratch replay of the log")
	}
}

// TestChaosMultiShardSequencing races submitters on four shards
// against Status readers (run under -race in CI). Every status a
// reader sees is either queued at a real queue position or sequenced
// on the arrival grid, and the drained request log holds exactly one
// dense line per accepted job.
func TestChaosMultiShardSequencing(t *testing.T) {
	const spacing = 100
	s := mustNew(t, Config{Shards: 4, SnapshotEvery: 8, SpacingMS: spacing, QueueDepth: 1 << 10})

	const submitters, each = 8, 30
	var mu sync.Mutex
	var accepted []string
	var wg sync.WaitGroup
	for w := 0; w < submitters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				st, err := s.Submit(small(fmt.Sprintf("w%d", w), fmt.Sprintf("j%d", k)))
				if err != nil {
					t.Errorf("submit w%d/j%d: %v", w, k, err)
					continue
				}
				mu.Lock()
				accepted = append(accepted, st.ID)
				mu.Unlock()
			}
		}(w)
	}

	stop := make(chan struct{})
	var rwg sync.WaitGroup
	for r := 0; r < 3; r++ {
		rwg.Add(1)
		go func(r int) {
			defer rwg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				mu.Lock()
				var id string
				if n := len(accepted); n > 0 {
					id = accepted[(i*7)%n]
				}
				mu.Unlock()
				if id == "" {
					continue
				}
				st, err := s.Status(id)
				if err != nil {
					t.Errorf("status %s: %v", id, err)
					return
				}
				switch st.State {
				case StateQueued:
					if st.QueuePosition < 1 || st.Seq != -1 {
						t.Errorf("queued %s at position %d, seq %d", id, st.QueuePosition, st.Seq)
					}
				default:
					if st.Seq < 0 || st.ArrivalMS != int64(st.Seq)*spacing {
						t.Errorf("%s %s at seq %d, arrival %d ms", st.State, id, st.Seq, st.ArrivalMS)
					}
				}
			}
		}(r)
	}

	wg.Wait()
	close(stop)
	rwg.Wait()
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}

	m, err := s.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	for i, sh := range m.Shards {
		if sh.Sequenced == 0 {
			t.Errorf("shard %d sequenced nothing; the test needs every shard busy (tallies %+v)", i, m.Shards)
		}
	}
	trace, err := workload.ParseTrace(strings.NewReader(s.ReplayLog()))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != len(accepted) {
		t.Fatalf("request log holds %d jobs, %d were accepted", len(trace), len(accepted))
	}
	logged := map[string]bool{}
	for i, tj := range trace {
		if tj.ArrivalMS != int64(i)*spacing {
			t.Errorf("log line %d (%s) arrives at %d ms, want %d", i, tj.ID, tj.ArrivalMS, int64(i)*spacing)
		}
		logged[tj.ID] = true
	}
	for _, id := range accepted {
		if !logged[id] {
			t.Errorf("accepted job %s missing from the request log", id)
		}
	}
}
