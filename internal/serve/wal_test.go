package serve

// The crash-safety battery: kill-9 simulated at every byte boundary of
// the WAL, recovery-equals-uninterrupted at shard counts 1 and 4,
// idempotent retries across restarts, and the named-error contract of
// every decoder on the recovery path. The in-process "crash" here is
// stronger than a real SIGKILL: a real kill can only tear the unsynced
// tail, while these tests tear at arbitrary byte offsets (CI's
// crash-recovery job does the real kill).

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// walConfig is the standard durable test service: on-ack fsync, small
// segments so rotation is exercised.
func walConfig(dir string, shards int) Config {
	return Config{WALDir: dir, Shards: shards, SnapshotEvery: 4}
}

// keyedReq builds the deterministic submission stream the chaos tests
// replay: request i always has the same tenant, id, shape and
// idempotency key, so a resubmission is a true retry.
func keyedReq(i int) SubmitRequest {
	req := small(fmt.Sprintf("t%d", i%3), fmt.Sprintf("j%d", i))
	req.IdempotencyKey = fmt.Sprintf("key-%03d", i)
	if i%4 == 3 {
		req.Batch = 32
	}
	return req
}

// submitSeq submits requests [from, to) sequentially and asserts each
// ack is sequenced and durable (the on-ack contract).
func submitSeq(t *testing.T, s *Service, from, to int) {
	t.Helper()
	for i := from; i < to; i++ {
		st, err := s.Submit(keyedReq(i))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		if st.Seq < 0 {
			t.Fatalf("submit %d: acked unsequenced (seq %d)", i, st.Seq)
		}
		if !st.Durable {
			t.Fatalf("submit %d: acked without durability", i)
		}
	}
}

func drainClose(t *testing.T, s *Service) string {
	t.Helper()
	if _, err := s.Drain(); err != nil {
		t.Fatal(err)
	}
	log := s.ReplayLog()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return log
}

// TestWALDurableAckAndRecover: with a WAL attached, Submit acks
// sequenced+durable, and a fresh RecoverWAL of the directory yields
// exactly the merged log.
func TestWALDurableAckAndRecover(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, walConfig(dir, 1))
	submitSeq(t, s, 0, 8)
	log := drainClose(t, s)

	rec, err := RecoverWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Torn != nil {
		t.Fatalf("clean shutdown recovered torn: %+v", rec.Torn)
	}
	if got := workload.FormatTrace(rec.Jobs); got != log {
		t.Fatalf("recovered log differs from served log:\ngot  %q\nwant %q", got, log)
	}
	if len(rec.Idem) != 8 {
		t.Fatalf("recovered %d idem bindings, want 8", len(rec.Idem))
	}
	for i, e := range rec.Idem {
		if e.Key != fmt.Sprintf("key-%03d", i) {
			t.Fatalf("idem %d key %q", i, e.Key)
		}
	}
}

// TestWALRefusesOversizeRecord: a request whose WAL record could
// outgrow one frame — by its id, its idempotency key, or the id
// auto-assigned under a long tenant — is refused at submit with
// ErrBadRequest instead of panicking the sequencer, while a record
// just under the cap is logged and recovered.
func TestWALRefusesOversizeRecord(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, walConfig(dir, 1))
	huge := strings.Repeat("x", workload.MaxFramePayload)
	keyed := small("t", "k")
	keyed.IdempotencyKey = huge
	for name, req := range map[string]SubmitRequest{
		"id":     small("t", huge),
		"key":    keyed,
		"tenant": small(huge, ""),
	} {
		if _, err := s.Submit(req); !errors.Is(err, ErrBadRequest) {
			t.Errorf("%s: err = %v, want ErrBadRequest", name, err)
		}
	}
	id := strings.Repeat("x", workload.MaxFramePayload-64)
	if _, err := s.Submit(small("t", id)); err != nil {
		t.Fatal(err)
	}
	drainClose(t, s)
	rec, err := RecoverWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(rec.Jobs) != 1 || rec.Jobs[0].ID != "t/"+id {
		t.Fatalf("recovered %d jobs, want the one near-cap job", len(rec.Jobs))
	}
}

// TestWALRecoveryPrefixAtEveryByte tears the WAL at every byte offset
// — every possible kill -9 point — and asserts recovery never panics,
// never errors, recovers exactly the complete-frame prefix with the
// keys of exactly those jobs (a tear inside a keyed record drops the
// key and the job together), and leaves a directory the service can
// keep appending to.
func TestWALRecoveryPrefixAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	s := mustNew(t, walConfig(dir, 1))
	submitSeq(t, s, 0, 6)
	log := drainClose(t, s)
	full, err := os.ReadFile(filepath.Join(dir, walSegmentName(0)))
	if err != nil {
		t.Fatal(err)
	}
	trace, err := workload.ParseTrace(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}

	// jobEnds[k] is the byte offset at which the k-th job record (key
	// and trace line in one frame) is complete. The frame boundaries —
	// the header's end and jobEnds — are the only cuts recovery reports
	// as untorn.
	var jobEnds []int
	cleanEnds := map[int]bool{}
	rest := full
	off := 0
	for len(rest) > 0 {
		var payload []byte
		if payload, rest, err = workload.ReadFrame(rest); err != nil {
			t.Fatal(err)
		}
		if off > 0 {
			if !strings.HasPrefix(string(payload), walIdemPrefix) {
				t.Fatalf("job record %q carries no idempotency key", payload)
			}
			jobEnds = append(jobEnds, off+workload.FrameSize(len(payload)))
		}
		off += workload.FrameSize(len(payload))
		cleanEnds[off] = true
	}

	for cut := 0; cut <= len(full); cut++ {
		want := 0
		for _, e := range jobEnds {
			if e <= cut {
				want++
			}
		}
		cutDir := t.TempDir()
		if err := os.WriteFile(filepath.Join(cutDir, walSegmentName(0)), full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := RecoverWAL(cutDir)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if len(rec.Jobs) != want {
			t.Fatalf("cut %d: recovered %d jobs, want %d", cut, len(rec.Jobs), want)
		}
		if want > 0 && !reflect.DeepEqual(rec.Jobs, trace[:want]) {
			t.Fatalf("cut %d: recovered jobs are not the log prefix", cut)
		}
		if len(rec.Idem) != want {
			t.Fatalf("cut %d: recovered %d keys for %d jobs", cut, len(rec.Idem), want)
		}
		for k, e := range rec.Idem {
			if e != (IdemEntry{Key: keyedReq(k).IdempotencyKey, ID: trace[k].ID}) {
				t.Fatalf("cut %d: idem binding %d is %+v", cut, k, e)
			}
		}
		if (rec.Torn == nil) != cleanEnds[cut] {
			t.Fatalf("cut %d: torn = %+v, want tear iff the cut is not a record boundary", cut, rec.Torn)
		}
		// The repaired directory must accept appends at the exact
		// recovered position.
		w, rec2, err := openWAL(cutDir, 1, 0)
		if err != nil {
			t.Fatalf("cut %d: reopen: %v", cut, err)
		}
		if len(rec2.Jobs) != want {
			t.Fatalf("cut %d: reopen recovered %d jobs, want %d", cut, len(rec2.Jobs), want)
		}
		extra := workload.TraceJob{
			ID: "x/extra", ArrivalMS: int64(want), Network: "AlexNet", Batch: 16, Iterations: 1,
		}
		if err := w.appendJob(extra, "key-extra"); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		if err := w.close(); err != nil {
			t.Fatalf("cut %d: close: %v", cut, err)
		}
		rec3, err := RecoverWAL(cutDir)
		if err != nil {
			t.Fatalf("cut %d: re-recover: %v", cut, err)
		}
		if len(rec3.Jobs) != want+1 || rec3.Torn != nil {
			t.Fatalf("cut %d: after repair+append recovered %d jobs (torn %v), want %d",
				cut, len(rec3.Jobs), rec3.Torn, want+1)
		}
		if last := rec3.Idem[len(rec3.Idem)-1]; last.Key != "key-extra" || last.ID != "x/extra" {
			t.Fatalf("cut %d: appended idem binding lost: %+v", cut, last)
		}
	}
}

// TestCrashRecoveryEqualsUninterrupted is the kill-9 chaos gate: a
// service crashed mid-run (WAL torn mid-record) and restarted on the
// same directory, with the client retrying idempotently, produces a
// merged request log byte-identical to an uninterrupted run — at one
// shard and at four.
func TestCrashRecoveryEqualsUninterrupted(t *testing.T) {
	const total, crashAt = 12, 7
	for _, shards := range []int{1, 4} {
		t.Run(fmt.Sprintf("shards=%d", shards), func(t *testing.T) {
			// Uninterrupted reference run.
			refDir := t.TempDir()
			ref := mustNew(t, walConfig(refDir, shards))
			submitSeq(t, ref, 0, total)
			wantLog := drainClose(t, ref)

			// Crashed run: same submission stream, torn at crashAt.
			dir := t.TempDir()
			s1 := mustNew(t, walConfig(dir, shards))
			submitSeq(t, s1, 0, crashAt)
			drainClose(t, s1)
			// Simulate the kill: the process died mid-append of the next
			// keyed record, leaving half its frame on disk.
			next := workload.AppendFrame(nil, []byte(walIdemPrefix+"key-007\n"+workload.FormatJob(workload.TraceJob{
				ID: "t1/j7", ArrivalMS: crashAt, Network: "AlexNet", Batch: 32, Iterations: 1,
			})))
			seg := lastSegment(t, dir)
			f, err := os.OpenFile(seg, os.O_WRONLY|os.O_APPEND, 0o644)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := f.Write(next[:len(next)/2]); err != nil {
				t.Fatal(err)
			}
			if err := f.Close(); err != nil {
				t.Fatal(err)
			}

			// Restart on the same directory: recovery truncates the tear.
			s2 := mustNew(t, walConfig(dir, shards))
			rec := s2.Recovered()
			if rec == nil || len(rec.Jobs) != crashAt {
				t.Fatalf("recovered %+v, want %d jobs", rec, crashAt)
			}
			if rec.Torn == nil {
				t.Fatal("torn tail not reported")
			}
			// The client retries the last acked submissions (lost-ack
			// paranoia): each must dedupe, not re-sequence.
			for i := crashAt - 2; i < crashAt; i++ {
				st, err := s2.Submit(keyedReq(i))
				if err != nil {
					t.Fatalf("retry %d: %v", i, err)
				}
				if !st.Deduped {
					t.Fatalf("retry %d was not deduplicated", i)
				}
				if want := fmt.Sprintf("t%d/j%d", i%3, i); st.ID != want {
					t.Fatalf("retry %d resolved to %q, want %q", i, st.ID, want)
				}
			}
			// Then the rest of the stream.
			submitSeq(t, s2, crashAt, total)
			gotLog := drainClose(t, s2)
			if gotLog != wantLog {
				t.Fatalf("post-recovery log differs from uninterrupted run:\ngot  %q\nwant %q", gotLog, wantLog)
			}
		})
	}
}

// lastSegment returns the path of the highest-numbered segment file.
func lastSegment(t *testing.T, dir string) string {
	t.Helper()
	segs, err := walSegments(dir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("no segments in %s (%v)", dir, err)
	}
	return segs[len(segs)-1]
}

// TestCheckpointResumeFromRecoveredLog: a checkpoint taken by the
// recovered service, resumed over the log suffix, equals the full
// replay — compaction and crash recovery compose.
func TestCheckpointResumeFromRecoveredLog(t *testing.T) {
	dir := t.TempDir()
	s1 := mustNew(t, walConfig(dir, 2))
	submitSeq(t, s1, 0, 6)
	drainClose(t, s1)

	s2 := mustNew(t, walConfig(dir, 2))
	ckpt, err := s2.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	submitSeq(t, s2, 6, 10)
	final, err := s2.Drain()
	if err != nil {
		t.Fatal(err)
	}
	log := s2.ReplayLog()
	if err := s2.Close(); err != nil {
		t.Fatal(err)
	}

	cs, err := RestoreCheckpoint(ckpt, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Seq != 6 {
		t.Fatalf("checkpoint covers %d jobs, want 6", cs.Seq)
	}
	if len(cs.Idem) != 6 {
		t.Fatalf("checkpoint persisted %d idem bindings, want 6", len(cs.Idem))
	}
	trace, err := workload.ParseTrace(strings.NewReader(log))
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := cs.Resume(sched.JobsFromTrace(trace[cs.Seq:]))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(resumed, final) {
		t.Fatalf("checkpoint-resumed result diverges from recovered service's drain:\ngot  %+v\nwant %+v", resumed, final)
	}
}

// TestWALSegmentRotation: tiny segments force rotation; recovery walks
// the chain and a restarted service keeps appending into it.
func TestWALSegmentRotation(t *testing.T) {
	dir := t.TempDir()
	cfg := walConfig(dir, 1)
	cfg.SegmentBytes = 128 // a record pair is ~60 bytes: rotate every couple of jobs
	s := mustNew(t, cfg)
	submitSeq(t, s, 0, 9)
	log := drainClose(t, s)

	rec, err := RecoverWAL(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rec.Segments < 3 {
		t.Fatalf("expected rotation, got %d segment(s)", rec.Segments)
	}
	if got := workload.FormatTrace(rec.Jobs); got != log {
		t.Fatal("multi-segment recovery differs from served log")
	}

	s2 := mustNew(t, cfg)
	if got := len(s2.Recovered().Jobs); got != 9 {
		t.Fatalf("restart recovered %d jobs, want 9", got)
	}
	submitSeq(t, s2, 9, 12)
	log2 := drainClose(t, s2)
	if !strings.HasPrefix(log2, log) {
		t.Fatal("resumed log does not extend the recovered log")
	}
}

// TestWALNamedErrors: structural damage surfaces as the named
// sentinels — never a panic, never silent truncation of deliberate
// bytes.
func TestWALNamedErrors(t *testing.T) {
	build := func(t *testing.T) string {
		dir := t.TempDir()
		cfg := walConfig(dir, 1)
		cfg.SegmentBytes = 128
		s := mustNew(t, cfg)
		submitSeq(t, s, 0, 9)
		drainClose(t, s)
		return dir
	}

	t.Run("segment gap", func(t *testing.T) {
		dir := build(t)
		if err := os.Remove(filepath.Join(dir, walSegmentName(1))); err != nil {
			t.Fatal(err)
		}
		if _, err := RecoverWAL(dir); !errors.Is(err, ErrWALGap) {
			t.Fatalf("err %v, want ErrWALGap", err)
		}
	})
	t.Run("spacing mismatch", func(t *testing.T) {
		dir := build(t)
		cfg := walConfig(dir, 1)
		cfg.SpacingMS = 7
		cfg.Cluster = testCluster()
		if _, err := New(cfg); !errors.Is(err, ErrWALSpacing) {
			t.Fatalf("err %v, want ErrWALSpacing", err)
		}
	})
	t.Run("valid frame, corrupt content", func(t *testing.T) {
		dir := t.TempDir()
		var b []byte
		b = workload.AppendFrame(b, []byte(walHeaderLine(0, 1)))
		b = workload.AppendFrame(b, []byte("this is not a trace line\n"))
		if err := os.WriteFile(filepath.Join(dir, walSegmentName(0)), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := RecoverWAL(dir); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("err %v, want ErrWALCorrupt", err)
		}
	})
	t.Run("off-grid arrival", func(t *testing.T) {
		dir := t.TempDir()
		tj := workload.TraceJob{ID: "t/j", ArrivalMS: 5, Network: "AlexNet", Batch: 16, Iterations: 1}
		var b []byte
		b = workload.AppendFrame(b, []byte(walHeaderLine(0, 1)))
		b = workload.AppendFrame(b, []byte(workload.FormatJob(tj)))
		if err := os.WriteFile(filepath.Join(dir, walSegmentName(0)), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := RecoverWAL(dir); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("err %v, want ErrWALCorrupt", err)
		}
	})
	t.Run("version 1 segment", func(t *testing.T) {
		dir := t.TempDir()
		b := workload.AppendFrame(nil, []byte("# snwal 1 seg 0 spacing 1\n"))
		if err := os.WriteFile(filepath.Join(dir, walSegmentName(0)), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := RecoverWAL(dir); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("err %v, want ErrWALCorrupt", err)
		}
	})
	t.Run("idem line without a job", func(t *testing.T) {
		dir := t.TempDir()
		var b []byte
		b = workload.AppendFrame(b, []byte(walHeaderLine(0, 1)))
		b = workload.AppendFrame(b, []byte(walIdemPrefix+"k\n"))
		if err := os.WriteFile(filepath.Join(dir, walSegmentName(0)), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := RecoverWAL(dir); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("err %v, want ErrWALCorrupt", err)
		}
	})
	t.Run("wrong segment index in header", func(t *testing.T) {
		dir := t.TempDir()
		b := workload.AppendFrame(nil, []byte(walHeaderLine(3, 1)))
		if err := os.WriteFile(filepath.Join(dir, walSegmentName(0)), b, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := RecoverWAL(dir); !errors.Is(err, ErrWALCorrupt) {
			t.Fatalf("err %v, want ErrWALCorrupt", err)
		}
	})
	t.Run("empty directory is a clean empty log", func(t *testing.T) {
		rec, err := RecoverWAL(t.TempDir())
		if err != nil || len(rec.Jobs) != 0 || rec.Torn != nil {
			t.Fatalf("rec %+v err %v, want empty clean recovery", rec, err)
		}
	})
}

// TestIdempotencyDedupAndEviction: a replayed key returns the original
// job; the index is bounded FIFO, and an evicted key stops deduping.
func TestIdempotencyDedupAndEviction(t *testing.T) {
	s := mustNew(t, Config{Manual: true, IdempotencyCap: 2})
	sub := func(id, key string) *JobStatus {
		t.Helper()
		req := small("t", id)
		req.IdempotencyKey = key
		st, err := s.Submit(req)
		if err != nil {
			t.Fatal(err)
		}
		return st
	}
	first := sub("a", "k1")
	if first.Deduped {
		t.Fatal("first submission marked deduped")
	}
	retry := sub("a-retried-with-other-id", "k1")
	if !retry.Deduped || retry.ID != first.ID {
		t.Fatalf("retry got %+v, want dedup to %s", retry, first.ID)
	}
	sub("b", "k2")
	sub("c", "k3") // evicts k1
	if st := sub("d", "k1"); st.Deduped {
		t.Fatal("evicted key still dedupes")
	}
	// A bad key is refused before it can corrupt a WAL "# idem" line.
	req := small("t", "e")
	req.IdempotencyKey = "has space"
	if _, err := s.Submit(req); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("whitespace key: %v, want ErrBadRequest", err)
	}
}

// TestIdempotencyAcrossRestart: the WAL persists the binding, so a
// retry lands as a dedup after the crash, not a second sequencing.
func TestIdempotencyAcrossRestart(t *testing.T) {
	dir := t.TempDir()
	s1 := mustNew(t, walConfig(dir, 1))
	st, err := s1.Submit(keyedReq(0))
	if err != nil {
		t.Fatal(err)
	}
	drainClose(t, s1)

	s2 := mustNew(t, walConfig(dir, 1))
	retry, err := s2.Submit(keyedReq(0))
	if err != nil {
		t.Fatal(err)
	}
	if !retry.Deduped || retry.ID != st.ID || retry.Seq != st.Seq {
		t.Fatalf("post-restart retry %+v, want dedup to %+v", retry, st)
	}
	log := drainClose(t, s2)
	if n := strings.Count(log, st.ID+" "); n != 1 {
		t.Fatalf("job appears %d times in the log, want exactly once:\n%s", n, log)
	}
}

// TestRestoreCheckpointNamedErrors: every malformed checkpoint decodes
// to an error matching ErrBadCheckpoint — empty, version-1, truncated,
// corrupted and record-damaged inputs — complementing
// FuzzRestoreCheckpoint's never-panic sweep.
func TestRestoreCheckpointNamedErrors(t *testing.T) {
	s := mustNew(t, Config{Manual: true, SnapshotEvery: 1})
	req := small("t", "a")
	req.IdempotencyKey = "k1"
	if _, err := s.Submit(req); err != nil {
		t.Fatal(err)
	}
	s.Advance(0)
	good, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := RestoreCheckpoint(good, nil)
	if err != nil {
		t.Fatalf("round trip: %v", err)
	}
	if len(cs.Idem) != 1 || cs.Idem[0] != (IdemEntry{Key: "k1", ID: "t/a"}) {
		t.Fatalf("idem round trip: %+v", cs.Idem)
	}

	recs := ckptRecords(t, good)
	bad := map[string][]byte{
		"empty":            nil,
		"version 1":        []byte("snckpt 1\nseq 0 1\nsched 0\nend\n"),
		"bad magic":        frames("# snckpt 99 seq 0 spacing 1 idem 0\n"),
		"negative seq":     frames("# snckpt 2 seq -1 spacing 1 idem 0\n"),
		"zero spacing":     frames("# snckpt 2 seq 0 spacing 0 idem 0\n"),
		"negative idem":    frames("# snckpt 2 seq 0 spacing 1 idem -1\n"),
		"idem oversold":    frames(append([]string{strings.Replace(recs[0], "idem 1", "idem 9", 1)}, recs[1:]...)...),
		"header only":      frames(recs[0]),
		"truncated tail":   good[:len(good)-4],
		"bad idem record":  frames(append([]string{recs[0], "# idem k1\n"}, recs[2:]...)...),
		"no snapshot":      frames(recs[:2]...),
		"junk after end":   append(append([]byte{}, good...), frames("trailing\n")...),
		"end record lost":  frames(recs[:len(recs)-1]...),
		"seq mismatch":     frames(append([]string{strings.Replace(recs[0], "seq 1 ", "seq 2 ", 1)}, recs[1:]...)...),
		"unframed payload": []byte(strings.Join(recs, "")),
	}
	for name, data := range bad {
		_, err := RestoreCheckpoint(data, nil)
		if err == nil {
			t.Errorf("%s: malformed checkpoint accepted", name)
			continue
		}
		if !errors.Is(err, ErrBadCheckpoint) {
			t.Errorf("%s: err %v does not match ErrBadCheckpoint", name, err)
		}
	}
}

// TestCheckpointTornOrFlippedAtEveryByte: every proper prefix of a
// checkpoint — every point a crash could tear its file — and every
// single-byte corruption fails with ErrBadCheckpoint, never a panic or
// a silently different replay.
func TestCheckpointTornOrFlippedAtEveryByte(t *testing.T) {
	s := mustNew(t, Config{Manual: true, SnapshotEvery: 2})
	for i := 0; i < 3; i++ {
		if _, err := s.Submit(keyedReq(i)); err != nil {
			t.Fatal(err)
		}
	}
	s.Advance(0)
	good, err := s.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RestoreCheckpoint(good, nil); err != nil {
		t.Fatalf("round trip: %v", err)
	}
	for cut := 0; cut < len(good); cut++ {
		if _, err := RestoreCheckpoint(good[:cut], nil); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("prefix of %d/%d bytes: err %v, want ErrBadCheckpoint", cut, len(good), err)
		}
	}
	flipped := append([]byte{}, good...)
	for i := range flipped {
		flipped[i] ^= 0xff
		if _, err := RestoreCheckpoint(flipped, nil); !errors.Is(err, ErrBadCheckpoint) {
			t.Fatalf("byte %d flipped: err %v, want ErrBadCheckpoint", i, err)
		}
		flipped[i] ^= 0xff
	}
}

// frames frames each record payload in order.
func frames(payloads ...string) []byte {
	var b []byte
	for _, p := range payloads {
		b = workload.AppendFrame(b, []byte(p))
	}
	return b
}

// ckptRecords splits a well-formed checkpoint into its record payloads.
func ckptRecords(t *testing.T, b []byte) []string {
	t.Helper()
	var recs []string
	for len(b) > 0 {
		payload, rest, err := workload.ReadFrame(b)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, string(payload))
		b = rest
	}
	return recs
}

// FuzzRecoverWAL throws torn, bit-flipped and arbitrary segment bytes
// at recovery: it must never panic, and whatever prefix it accepts
// must be a valid log — dense arrival grid, unique ids, idem bindings
// pointing at recovered jobs — that openWAL can repair and append to.
func FuzzRecoverWAL(f *testing.F) {
	// The seed segment comes from the writer: a header, a keyed record
	// and an unkeyed one.
	seedDir := f.TempDir()
	w, _, err := openWAL(seedDir, 1, 0)
	if err != nil {
		f.Fatal(err)
	}
	for i, key := range []string{"k0", ""} {
		tj := workload.TraceJob{ID: fmt.Sprintf("t/%c", 'a'+i), ArrivalMS: int64(i), Network: "AlexNet", Batch: 16 << i, Iterations: 1 + i}
		if err := w.appendJob(tj, key); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(filepath.Join(seedDir, walSegmentName(0)))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(valid)
	f.Add(valid[:len(valid)-5])
	f.Add(valid[:11])
	flipped := append([]byte{}, valid...)
	flipped[len(flipped)-3] ^= 0x20
	f.Add(flipped)
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, walSegmentName(0)), data, 0o644); err != nil {
			t.Fatal(err)
		}
		rec, err := RecoverWAL(dir)
		if err != nil {
			if !errors.Is(err, ErrWALCorrupt) && !errors.Is(err, ErrWALGap) {
				t.Fatalf("unnamed recovery error: %v", err)
			}
			return
		}
		seen := map[string]bool{}
		for i, tj := range rec.Jobs {
			if tj.ArrivalMS != int64(i)*rec.SpacingMS {
				t.Fatalf("job %d arrival %d off the %dms grid", i, tj.ArrivalMS, rec.SpacingMS)
			}
			if seen[tj.ID] {
				t.Fatalf("duplicate id %q survived recovery", tj.ID)
			}
			seen[tj.ID] = true
		}
		for _, e := range rec.Idem {
			if !seen[e.ID] {
				t.Fatalf("idem binding %q -> %q points at no recovered job", e.Key, e.ID)
			}
		}
		// The recovered directory must be appendable at the tear.
		spacing := rec.SpacingMS
		if spacing == 0 {
			spacing = 1
		}
		w, rec2, err := openWAL(dir, spacing, 0)
		if err != nil {
			t.Fatalf("openWAL after clean recovery: %v", err)
		}
		if len(rec2.Jobs) != len(rec.Jobs) {
			t.Fatalf("reopen recovered %d jobs, first pass %d", len(rec2.Jobs), len(rec.Jobs))
		}
		extra := workload.TraceJob{
			ID: "fuzz/appended", ArrivalMS: int64(len(rec.Jobs)) * spacing,
			Network: "AlexNet", Batch: 16, Iterations: 1,
		}
		if seen[extra.ID] || extra.ArrivalMS < 0 { // overflow on an absurd fuzzed spacing
			w.close()
			return
		}
		if err := w.appendJob(extra, ""); err != nil {
			t.Fatalf("append after repair: %v", err)
		}
		if err := w.close(); err != nil {
			t.Fatal(err)
		}
		rec3, err := RecoverWAL(dir)
		if err != nil {
			t.Fatalf("re-recover after append: %v", err)
		}
		if len(rec3.Jobs) != len(rec.Jobs)+1 || rec3.Torn != nil {
			t.Fatalf("append after repair not recovered: %d jobs, torn %v", len(rec3.Jobs), rec3.Torn)
		}
	})
}
