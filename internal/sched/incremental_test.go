package sched

import (
	"bytes"
	"fmt"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/sim"
	"repro/internal/workload"
)

// testJobs is a stream exercising every job fate: admitted, backfilled,
// preempted, dynamic-shape, type-2 rejected (fits nowhere).
func testJobs() []Job {
	ms := func(v int64) sim.Time { return sim.Time(v) * sim.Time(sim.Millisecond) }
	return []Job{
		{ID: "big-a", Network: "ResNet50", Batch: 32, Manager: "naive", Priority: 2, Arrival: ms(0), Iterations: 6},
		{ID: "big-b", Network: "VGG16", Batch: 32, Manager: "caffe", Priority: 2, Arrival: ms(0), Iterations: 3},
		{ID: "hot", Network: "AlexNet", Batch: 512, Manager: "naive", Priority: 9, Arrival: ms(40), Iterations: 4},
		{ID: "dyn", Network: "AlexNet", Batch: 512, BatchSchedule: []int{128, 512, 128}, Manager: "superneurons", Priority: 3, Arrival: ms(60), Iterations: 3},
		{ID: "small", Network: "AlexNet", Batch: 128, Manager: "naive", Priority: 1, Arrival: ms(80), Iterations: 5},
		{ID: "huge", Network: "AlexNet", Batch: 1024, Manager: "naive", Priority: 4, Arrival: ms(100), Iterations: 1},
		{ID: "late", Network: "AlexNet", Batch: 64, Manager: "naive", Priority: 5, Arrival: ms(900), Iterations: 4},
	}
}

// TestIncrementalMatchesBatch replays the stream through an
// Incremental with every split point and watermark choice and demands
// the exact batch-run Result each time: the core determinism claim
// behind log compaction.
func TestIncrementalMatchesBatch(t *testing.T) {
	jobs := testJobs()
	c := testCluster()
	est := NewEstimator()
	for _, p := range Policies() {
		s, err := NewSchedulerWithEstimator(c, p, est)
		if err != nil {
			t.Fatal(err)
		}
		want, err := s.Run(jobs)
		if err != nil {
			t.Fatal(err)
		}
		for split := 0; split <= len(jobs); split++ {
			inc, err := NewIncremental(c, p, est)
			if err != nil {
				t.Fatal(err)
			}
			for _, j := range jobs[:split] {
				if _, err := inc.Append(j); err != nil {
					t.Fatalf("%s split %d: %v", p.Name, split, err)
				}
			}
			// Advance as far as the suffix allows: to the next
			// arrival, exclusive.
			if split < len(jobs) {
				inc.AdvanceTo(jobs[split].Arrival)
			} else {
				inc.AdvanceTo(1 << 50)
			}
			for _, j := range jobs[split:] {
				if _, err := inc.Append(j); err != nil {
					t.Fatalf("%s split %d: %v", p.Name, split, err)
				}
			}
			got, err := inc.Result()
			if err != nil {
				t.Fatalf("%s split %d: %v", p.Name, split, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("%s split %d: incremental result diverges from batch:\ngot  %+v\nwant %+v", p.Name, split, got, want)
			}
		}
	}
}

// TestIncrementalResultLeavesReplayPaused checks Result() works on a
// clone: calling it twice, interleaved with appends, never corrupts
// the paused state.
func TestIncrementalResultLeavesReplayPaused(t *testing.T) {
	jobs := testJobs()
	c := testCluster()
	inc, err := NewIncremental(c, Packing, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs[:4] {
		if _, err := inc.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	inc.AdvanceTo(jobs[4].Arrival)
	r1, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	r2, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r1, r2) {
		t.Fatalf("repeated Result() diverged:\n%+v\n%+v", r1, r2)
	}
	for _, j := range jobs[4:] {
		if _, err := inc.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	s, _ := NewScheduler(c, Packing)
	want, err := s.Run(jobs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("result after intermediate Result() calls diverged from batch")
	}
}

// TestIncrementalFinalized checks the O(1) status fast path: finalized
// verdicts match the full result and never flip.
func TestIncrementalFinalized(t *testing.T) {
	jobs := testJobs()
	c := testCluster()
	inc, err := NewIncremental(c, FIFO, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range jobs {
		if _, err := inc.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	if _, ok := inc.Finalized(0); ok {
		t.Fatal("job finalized before any advance")
	}
	// "huge" is rejected up front: finalized immediately.
	if jr, ok := inc.Finalized(5); !ok || !jr.Rejected {
		t.Fatalf("rejected job not finalized immediately: %+v ok=%v", jr, ok)
	}
	want, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	inc.AdvanceTo(1 << 50)
	for i := range jobs {
		jr, ok := inc.Finalized(i)
		if !ok {
			t.Fatalf("job %d not finalized after full drain", i)
		}
		if !reflect.DeepEqual(jr, want.Jobs[i]) {
			t.Fatalf("job %d finalized status diverges:\ngot  %+v\nwant %+v", i, jr, want.Jobs[i])
		}
	}
	if inc.Finished()+inc.Rejected() != len(jobs) {
		t.Fatalf("aggregate counts %d+%d do not cover %d jobs", inc.Finished(), inc.Rejected(), len(jobs))
	}
}

// TestAppendBeforeWatermarkRejected: virtual time only moves forward.
func TestAppendBeforeWatermarkRejected(t *testing.T) {
	inc, err := NewIncremental(testCluster(), FIFO, nil)
	if err != nil {
		t.Fatal(err)
	}
	inc.AdvanceTo(sim.Time(100 * sim.Millisecond))
	if _, err := inc.Append(Job{ID: "past", Network: "AlexNet", Batch: 64, Arrival: sim.Time(50 * sim.Millisecond), Iterations: 1}); err == nil {
		t.Fatal("append below the watermark succeeded")
	}
}

// TestSnapshotRoundTrip pauses mid-stream, snapshots, restores, and
// demands the restored replay finish byte-identically to both the
// original and a batch run — including the snapshot bytes themselves
// being stable across encode/restore/encode.
func TestSnapshotRoundTrip(t *testing.T) {
	jobs := testJobs()
	c := testCluster()
	for _, p := range Policies() {
		t.Run(p.Name, func(t *testing.T) {
			s, err := NewScheduler(c, p)
			if err != nil {
				t.Fatal(err)
			}
			want, err := s.Run(jobs)
			if err != nil {
				t.Fatal(err)
			}
			for split := 1; split < len(jobs); split++ {
				inc, err := NewIncremental(c, p, nil)
				if err != nil {
					t.Fatal(err)
				}
				for _, j := range jobs[:split] {
					if _, err := inc.Append(j); err != nil {
						t.Fatal(err)
					}
				}
				inc.AdvanceTo(jobs[split].Arrival)
				snap := EncodeSnapshot(inc)
				restored, err := RestoreIncremental(snap, nil)
				if err != nil {
					t.Fatalf("split %d: restore: %v", split, err)
				}
				if again := EncodeSnapshot(restored); string(again) != string(snap) {
					t.Fatalf("split %d: snapshot not stable across restore:\n--- first\n%s\n--- second\n%s", split, snap, again)
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
					t.Fatalf("split %d: snapshot-resumed result diverges from batch:\ngot  %+v\nwant %+v", split, got, want)
				}
				if fmt.Sprintf("%+v", got) != fmt.Sprintf("%+v", want) {
					t.Fatalf("split %d: rendered results differ", split)
				}
			}
		})
	}
}

// TestSnapshotDecodeErrors feeds the decoder malformed snapshots; each
// must error cleanly.
func TestSnapshotDecodeErrors(t *testing.T) {
	inc, err := NewIncremental(testCluster(), Packing, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range testJobs()[:3] {
		if _, err := inc.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	inc.AdvanceTo(sim.Time(50 * sim.Millisecond))
	good := EncodeSnapshot(inc)

	cases := map[string][]byte{
		"empty":        nil,
		"bad magic":    snapFrames("snsnap 99\n"),
		"version 1":    []byte(snapText(good)),
		"truncated":    good[:len(good)/2],
		"no end":       good[:len(good)-workload.FrameSize(len("end\n"))],
		"after end":    append(append([]byte{}, good...), snapFrames("end\n")...),
		"two lines":    mutate(good, "clock ", "clock\n"),
		"binary junk":  {0xff, 0xfe, 0x00, 0x01},
		"huge count":   snapFrames(snapMagic + "\npolicy fifo\ndevice d 1 1 0x0 0x0 0 0 0 0 0x3ff0000000000000 0x3ff0000000000000\ndevices 999999999\n"),
		"bad float":    snapFrames(snapMagic + "\npolicy fifo\ndevice d 1 1 zz 0x0 0 0 0 0 0x0 0x0\n"),
		"unknown pol":  snapFrames(snapMagic + "\npolicy lottery\n"),
		"neg devices":  snapFrames(snapMagic + "\npolicy fifo\ndevice d 1 1 0x0 0x0 0 0 0 0 0x0 0x0\ndevices -4\n"),
		"resident mix": mutate(good, "dev 0 ", "dev 1 "),
		"no iter time": mutate(good, " 32:", " 33:"),
	}
	for name, data := range cases {
		if _, err := RestoreIncremental(data, nil); err == nil {
			t.Errorf("%s: decoder accepted malformed snapshot", name)
		}
	}
}

// idleFitSnapshot is a snapshot the event loop never writes: job 0 is
// pending while an idle device has room for it, so the admission pass
// is not at rest.
func idleFitSnapshot(t testing.TB) []byte {
	inc, err := NewIncremental(testCluster(), FIFO, nil)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := inc.Append(testJobs()[6]); err != nil {
		t.Fatal(err)
	}
	snap := snapText(EncodeSnapshot(inc))
	// Deliver the arrival by hand: list the job as pending and drop its
	// queued arrival event.
	ev := fmt.Sprintf("events 1\nev %d 0 0 0 0\n", int64(testJobs()[6].Arrival))
	if !strings.Contains(snap, "pending 0\n"+ev) {
		t.Fatalf("unexpected snapshot layout:\n%s", snap)
	}
	return snapFrames(strings.Replace(snap, "pending 0\n"+ev, "pending 1 0\nevents 0\n", 1))
}

// TestSnapshotRestoreRequiresRest: restore accepts only snapshots whose
// admission pass is at rest, and builds the queue in policy order
// whatever order the snapshot lists it in.
func TestSnapshotRestoreRequiresRest(t *testing.T) {
	inc, err := NewIncremental(testCluster(), FIFO, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range testJobs() {
		if _, err := inc.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	inc.AdvanceTo(sim.Time(85 * sim.Millisecond))
	sorted := EncodeSnapshot(inc)
	var pending string
	for _, line := range strings.Split(snapText(sorted), "\n") {
		if strings.HasPrefix(line, "pending ") {
			pending = line
		}
	}
	f := strings.Fields(pending)
	if len(f) < 4 {
		t.Fatalf("want at least two pending jobs, got %q", pending)
	}
	slices.Reverse(f[2:])
	outOfOrder := mutate(sorted, pending, strings.Join(f, " "))

	cases := []struct {
		name    string
		data    []byte
		wantErr string // "" means accepted and re-encoded as sorted
	}{
		{"pending job fits an idle device", idleFitSnapshot(t), "sched: snapshot: admission pass not at rest"},
		{"pending listed out of order", outOfOrder, ""},
	}
	for _, tc := range cases {
		restored, err := RestoreIncremental(tc.data, nil)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("%s: want error %q, got %v", tc.name, tc.wantErr, err)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", tc.name, err)
			continue
		}
		if again := EncodeSnapshot(restored); !bytes.Equal(again, sorted) {
			t.Errorf("%s: re-encoded snapshot is not the sorted original:\n%s", tc.name, again)
		}
	}
}

// snapText joins a framed snapshot's record payloads into one text,
// newline-separated records, the form the tests edit; it stops at the
// first bad frame.
func snapText(b []byte) string {
	var s strings.Builder
	for len(b) > 0 {
		payload, rest, err := workload.ReadFrame(b)
		if err != nil {
			break
		}
		s.Write(payload)
		b = rest
	}
	return s.String()
}

// snapFrames frames text back into a snapshot, one line per record.
func snapFrames(text string) []byte {
	var b []byte
	for _, line := range strings.SplitAfter(text, "\n") {
		if line != "" {
			b = workload.AppendFrame(b, []byte(line))
		}
	}
	return b
}

// mutate replaces the first occurrence of old with new in the
// snapshot's records; it returns b itself when old does not occur.
func mutate(b []byte, old, new string) []byte {
	s := snapText(b)
	if !strings.Contains(s, old) {
		return b
	}
	return snapFrames(strings.Replace(s, old, new, 1))
}

// FuzzRestoreIncremental asserts the snapshot decoder never panics,
// and that anything it accepts re-encodes stably and can be drained
// without panicking — the framing half of the fuzz satellite.
func FuzzRestoreIncremental(f *testing.F) {
	inc, err := NewIncremental(testCluster(), Packing, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, j := range testJobs() {
		if _, err := inc.Append(j); err != nil {
			f.Fatal(err)
		}
	}
	inc.AdvanceTo(sim.Time(70 * sim.Millisecond))
	f.Add(EncodeSnapshot(inc))
	// A mid-outage seed: a failed device, a shrunk gang and a queued
	// recovery event exercise the fault extensions of the format.
	fcl, fjobs := faultCluster(f)
	finc, err := NewIncremental(fcl, TopoPacking, nil)
	if err != nil {
		f.Fatal(err)
	}
	for _, j := range fjobs {
		if _, err := finc.Append(j); err != nil {
			f.Fatal(err)
		}
	}
	finc.AdvanceTo(sim.Time(2500 * sim.Millisecond))
	f.Add(EncodeSnapshot(finc))
	f.Add(idleFitSnapshot(f))
	// An empty replay, whole and torn after its header record.
	empty, err := NewIncremental(testCluster(), Packing, nil)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(EncodeSnapshot(empty))
	f.Add(EncodeSnapshot(empty)[:workload.FrameSize(len(snapMagic)+1)])
	f.Fuzz(func(t *testing.T, data []byte) {
		restored, err := RestoreIncremental(data, nil)
		if err != nil {
			return
		}
		// Restore and clone rebuild the free-capacity summary from the
		// restored devices, failed flags included.
		if want := rebuiltFree(restored.ex); !slices.Equal(restored.ex.free, want) {
			t.Fatalf("restored free-capacity summary %v, rebuild gives %v", restored.ex.free, want)
		}
		if c := restored.Clone(); !slices.Equal(c.ex.free, rebuiltFree(c.ex)) {
			t.Fatalf("cloned free-capacity summary %v, rebuild gives %v", c.ex.free, rebuiltFree(c.ex))
		}
		// Accepted snapshots must re-encode stably and drain cleanly
		// (errors fine, panics not).
		again := EncodeSnapshot(restored)
		r2, err := RestoreIncremental(again, nil)
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		r2.Result()
		// Draining from the restored state keeps the summary in step.
		restored.ex.processUntil(-1)
		if want := rebuiltFree(restored.ex); !slices.Equal(restored.ex.free, want) {
			t.Fatalf("drained free-capacity summary %v, rebuild gives %v", restored.ex.free, want)
		}
	})
}
