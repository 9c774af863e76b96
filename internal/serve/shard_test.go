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

// TestMultiShardReplayByteIdentical is the sharded variant of the
// single-sequencer replay guarantee: traffic from many tenants spread
// over 4 shards merges into one log whose offline
// replay reproduces the drain result byte for byte.
func TestMultiShardReplayByteIdentical(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, SnapshotEvery: 8})

	const tenants, each = 16, 4
	var wg sync.WaitGroup
	for ti := 0; ti < tenants; ti++ {
		wg.Add(1)
		go func(ti int) {
			defer wg.Done()
			for k := 0; k < each; k++ {
				req := small(fmt.Sprintf("c%d", ti), fmt.Sprintf("j%d", k))
				if _, err := s.Submit(req); err != nil {
					t.Errorf("submit c%d/j%d: %v", ti, k, err)
				}
			}
		}(ti)
	}
	wg.Wait()
	if n := s.WaitSequenced(tenants*each, 5*time.Second); n != tenants*each {
		t.Fatalf("sequenced %d jobs, want %d", n, tenants*each)
	}
	final, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}

	trace, err := workload.ParseTrace(strings.NewReader(s.ReplayLog()))
	if err != nil {
		t.Fatalf("request log is not a valid trace: %v", err)
	}
	// Arrivals are the dense deterministic grid regardless of which
	// shard merged each slot.
	for i, tj := range trace {
		if tj.ArrivalMS != int64(i) {
			t.Fatalf("job %d arrival %d, want %d", i, tj.ArrivalMS, i)
		}
	}
	fresh, err := sched.NewScheduler(testCluster(), sched.Packing)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := fresh.Run(sched.JobsFromTrace(trace))
	if err != nil {
		t.Fatal(err)
	}
	if got, want := fmt.Sprintf("%+v", replayed), fmt.Sprintf("%+v", final); got != want {
		t.Errorf("offline replay differs from service result:\n--- replay\n%s\n--- service\n%s", got, want)
	}
	if !reflect.DeepEqual(replayed.Jobs, final.Jobs) {
		t.Error("per-job results differ between service and replay")
	}

	// The tenant hash spreads the 16 tenants over the shards.
	m, err := s.Metrics()
	if err != nil {
		t.Fatal(err)
	}
	busy := 0
	for _, sh := range m.Shards {
		if sh.Tenants > 0 {
			busy++
		}
	}
	if busy < 2 {
		t.Errorf("16 tenants landed on %d shard(s); expected the hash to spread them", busy)
	}
}

// TestDrainDuringConcurrentSubmits storms every shard from many
// goroutines while a drain fires mid-flight: every submission must
// either be sequenced exactly once or be refused — no lost jobs, no
// double sequencing. Run under -race in CI.
func TestDrainDuringConcurrentSubmits(t *testing.T) {
	s := mustNew(t, Config{Shards: 4, SnapshotEvery: 16, QueueDepth: 1 << 16})

	const workers, each = 8, 50
	accepted := make([][]string, workers)
	var wg sync.WaitGroup
	start := make(chan struct{})
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			<-start
			for k := 0; k < each; k++ {
				req := small(fmt.Sprintf("w%d", w), fmt.Sprintf("j%d", k))
				st, err := s.Submit(req)
				switch {
				case err == nil:
					accepted[w] = append(accepted[w], st.ID)
				case errors.Is(err, ErrDraining):
					// refused; must not appear in the log
				default:
					t.Errorf("submit w%d/j%d: %v", w, k, err)
				}
			}
		}(w)
	}
	var final *sched.Result
	var drainErr error
	wg.Add(1)
	go func() {
		defer wg.Done()
		<-start
		time.Sleep(time.Millisecond)
		final, drainErr = s.Drain()
	}()
	close(start)
	wg.Wait()
	if drainErr != nil {
		t.Fatal(drainErr)
	}

	counts := map[string]int{}
	for _, jr := range final.Jobs {
		counts[jr.ID]++
	}
	total := 0
	for w := range accepted {
		for _, id := range accepted[w] {
			if counts[id] != 1 {
				t.Errorf("accepted job %s appears %d times in the final schedule", id, counts[id])
			}
			total++
		}
	}
	if len(final.Jobs) != total {
		t.Errorf("final schedule has %d jobs, %d were accepted", len(final.Jobs), total)
	}
	// Drain is idempotent after the storm.
	again, err := s.Drain()
	if err != nil || again != final {
		t.Errorf("second drain = (%p, %v), want identical result", again, err)
	}
}

// TestCheckpointResumeEqualsFullReplay: a mid-stream checkpoint plus
// the log suffix reproduces the full-history drain result byte for
// byte — the crash-recovery/compaction guarantee.
func TestCheckpointResumeEqualsFullReplay(t *testing.T) {
	s := mustNew(t, Config{Manual: true, Shards: 3, SnapshotEvery: 2})
	nets := []SubmitRequest{
		{Network: "AlexNet", Batch: 16, Iterations: 2},
		{Network: "AlexNet", Batch: 32, Priority: 5},
		{Network: "AlexNet", Schedule: "16x2,32", Iterations: 3, Manager: "superneurons"},
		{Network: "AlexNet", Batch: 1024}, // deterministically rejected
	}
	submit := func(n int) {
		t.Helper()
		for i := 0; i < n; i++ {
			req := nets[i%len(nets)]
			req.Tenant = fmt.Sprintf("t%d", i%5)
			if _, err := s.Submit(req); err != nil {
				t.Fatal(err)
			}
		}
	}
	submit(12)
	s.Advance(0)

	ckpt, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}

	submit(7)
	s.Advance(0)
	final, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}

	cs, err := RestoreCheckpoint(ckpt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Seq != 12 || cs.SpacingMS != 1 {
		t.Fatalf("checkpoint covers seq %d spacing %d, want 12 and 1", cs.Seq, cs.SpacingMS)
	}
	trace, err := workload.ParseTrace(strings.NewReader(s.ReplayLog()))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := cs.Resume(sched.JobsFromTrace(trace[cs.Seq:]))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, final) {
		t.Fatalf("checkpoint-resumed result diverges from full replay:\ngot  %+v\nwant %+v", resumed, final)
	}
	if fmt.Sprintf("%+v", resumed) != fmt.Sprintf("%+v", final) {
		t.Fatal("rendered results differ")
	}
}

// TestCheckpointLongSchedule: a job whose dynamic schedule has
// workload.MaxScheduleLen entries — the longest validate accepts —
// checkpoints into records that each fit one frame, and restoring and
// resuming the checkpoint equals the service's own drain.
func TestCheckpointLongSchedule(t *testing.T) {
	s := mustNew(t, Config{Manual: true})
	long := fmt.Sprintf("16x%d,32", workload.MaxScheduleLen-1)
	if _, err := s.Submit(SubmitRequest{Tenant: "t", ID: "long", Network: "AlexNet", Schedule: long, Iterations: 3}); err != nil {
		t.Fatal(err)
	}
	s.Advance(0)
	ckpt, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if len(ckpt) > 64<<10 {
		t.Errorf("checkpoint is %d bytes; the schedule should travel run-length encoded", len(ckpt))
	}
	cs, err := RestoreCheckpoint(ckpt, nil)
	if err != nil {
		t.Fatal(err)
	}
	final, err := s.Drain()
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := cs.Resume(nil)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, final) {
		t.Fatalf("long-schedule checkpoint resumes to a different result:\ngot  %+v\nwant %+v", resumed, final)
	}
}

// TestCheckpointOversizeRecordErrors: a record too large for one frame
// makes Checkpoint return an error instead of panicking. The id fits
// the WAL's frame but not the snapshot's, which escapes every '/' to
// three bytes.
func TestCheckpointOversizeRecordErrors(t *testing.T) {
	s := mustNew(t, Config{Manual: true})
	// JSON writes each '<' as the six bytes \u003c: the id fits the
	// log record but not the snapshot's job record.
	if _, err := s.Submit(small("t", strings.Repeat("<", workload.MaxFramePayload/2))); err != nil {
		t.Fatal(err)
	}
	s.Advance(0)
	if ckpt, err := s.Checkpoint(); err == nil {
		t.Fatalf("checkpoint of %d bytes written with an oversize job record", len(ckpt))
	}
}

func TestCheckpointMalformed(t *testing.T) {
	sc := mustNew(t, Config{Manual: true, SnapshotEvery: 1})
	if _, err := sc.Submit(small("t", "a")); err != nil {
		t.Fatal(err)
	}
	sc.Advance(0)
	good, err := sc.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreCheckpoint(good, nil); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	recs := ckptRecords(t, good)
	bad := map[string][]byte{
		"empty":        nil,
		"bad magic":    frames("# snckpt 99 seq 0 spacing 1 idem 0\n"),
		"no seq":       frames("# snckpt 2\n"),
		"neg seq":      frames("# snckpt 2 seq -1 spacing 1 idem 0\n"),
		"zero spacing": frames("# snckpt 2 seq 0 spacing 0 idem 0\n"),
		"short body":   frames("# snckpt 2 seq 0 spacing 1 idem 999\n", "# idem k t/a\n"),
		"truncated":    good[:len(good)-6],
		"junk payload": frames("# snckpt 2 seq 0 spacing 1 idem 0\n", "junk\n"),
		"seq mismatch": frames(append([]string{strings.Replace(recs[0], "seq 1 ", "seq 2 ", 1)}, recs[1:]...)...),
	}
	for name, data := range bad {
		if _, err := RestoreCheckpoint(data, nil); err == nil {
			t.Errorf("%s: malformed checkpoint accepted", name)
		}
	}
}

// FuzzRestoreCheckpoint asserts the checkpoint framing and snapshot
// decoders never panic and never accept a frame whose declared seq
// disagrees with the embedded replay state. Resume liveness is NOT
// asserted here: a syntactically valid mutant may encode astronomical
// remaining work (e.g. 2^50 iterations) that the simulator would
// faithfully — and slowly — execute; semantic equivalence of resumed
// replays is covered deterministically by
// TestCheckpointResumeEqualsFullReplay.
func FuzzRestoreCheckpoint(f *testing.F) {
	// Seeds come from the encoder: a fresh service's checkpoint, and a
	// multi-record one with keyed jobs, whole and torn mid-snapshot.
	s, err := New(Config{Cluster: testCluster(), Manual: true, SnapshotEvery: 2})
	if err != nil {
		f.Fatal(err)
	}
	empty, err := s.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		req := small(fmt.Sprintf("t%d", i%2), fmt.Sprintf("j%d", i))
		if i%2 == 0 {
			req.IdempotencyKey = fmt.Sprintf("key-%d", i)
		}
		if _, err := s.Submit(req); err != nil {
			f.Fatal(err)
		}
	}
	s.Advance(0)
	good, err := s.Checkpoint()
	if err != nil {
		f.Fatal(err)
	}
	f.Add(good)
	f.Add(empty)
	f.Add(good[:len(good)/2])
	f.Fuzz(func(t *testing.T, data []byte) {
		cs, err := RestoreCheckpoint(data, nil)
		if err != nil {
			return
		}
		if cs.Replay == nil || cs.Replay.Len() != cs.Seq {
			t.Fatalf("accepted checkpoint has %v jobs for declared seq %d", cs.Replay, cs.Seq)
		}
	})
}

// BenchmarkServeStatusAfterN measures one marginal
// submit+sequence+status round at history length n. The replay resumes
// from the compaction watermark, so the cost stays flat in n. Arrivals
// are spaced a virtual minute apart so the simulated cluster keeps up
// with the log — compaction can only finalize work the cluster has
// virtually completed, so a permanently backlogged trace would keep
// the suffix growing no matter the watermark.
func BenchmarkServeStatusAfterN(b *testing.B) {
	for _, n := range []int{512, 2048, 8192} {
		b.Run(fmt.Sprintf("history=%d/snapshot=on", n), func(b *testing.B) {
			s, err := New(Config{Cluster: testCluster(), Manual: true, QueueDepth: 1 << 20, SpacingMS: 60_000})
			if err != nil {
				b.Fatal(err)
			}
			for i := 0; i < n; i++ {
				if _, err := s.Submit(small("t", fmt.Sprintf("h%d", i))); err != nil {
					b.Fatal(err)
				}
			}
			s.Advance(0)
			if _, err := s.Status("t/h0"); err != nil { // one untimed query before the timer starts
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := fmt.Sprintf("t/x%d", i)
				if _, err := s.Submit(SubmitRequest{Tenant: "t", ID: fmt.Sprintf("x%d", i), Network: "AlexNet", Batch: 16}); err != nil {
					b.Fatal(err)
				}
				s.Advance(1)
				if _, err := s.Status(id); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
