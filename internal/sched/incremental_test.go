package sched

import (
	"bytes"
	"cmp"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"reflect"
	"slices"
	"strings"
	"testing"

	"repro/internal/hw"
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
				snap := mustSnapshot(t, inc)
				restored, err := RestoreIncremental(snap, nil)
				if err != nil {
					t.Fatalf("split %d: restore: %v", split, err)
				}
				if again := mustSnapshot(t, restored); string(again) != string(snap) {
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
// must fail with the error of the check it trips.
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
	good := mustSnapshot(t, inc)
	// Job 0 runs alone on device 0, job 1 on device 1, job 2 waits.
	edit := func(f func(s *snapDoc)) []byte { return editSnap(t, good, f) }
	header := func(key string, v any) []byte {
		return edit(func(s *snapDoc) { s.Header[key] = v })
	}
	cluster := func(key string, v any) []byte {
		return edit(func(s *snapDoc) { s.Header["Cluster"].(map[string]any)[key] = v })
	}
	job := func(i int, key string, v any) []byte {
		return edit(func(s *snapDoc) { s.Jobs[i][key] = v })
	}
	dev := func(i int, key string, v any) []byte {
		return edit(func(s *snapDoc) { s.Devs[i][key] = v })
	}
	event := func(i int, key string, v any) []byte {
		return edit(func(s *snapDoc) { s.Events[i][key] = v })
	}

	cases := []struct {
		name string
		data []byte
		want string
	}{
		{"empty", nil, "record 1: unexpected end of snapshot"},
		{"binary junk", []byte{0xff, 0xfe, 0x00, 0x01}, "sched: snapshot: record 1"},
		{"truncated", good[:len(good)/2], "sched: snapshot: record"},
		{"not JSON", snapFrames("snsnap 3\n"), "sched: snapshot record 1: invalid character"},
		{"data after a record", snapFrames(strings.Replace(snapText(good), "\n", " {}\n", 1)), "record 1: data after the record"},
		{"unknown field", job(0, "Extra", 1), "record 2: json: unknown field"},
		{"bad magic", header("Magic", "snsnap 99"), "record 1: bad magic"},
		{"unknown policy", header("Policy", "lottery"), "unknown policy"},
		{"huge device count", cluster("Devices", 999999999), "999999999 devices out of range"},
		{"negative device count", cluster("Devices", -4), "-4 devices out of range"},
		{"huge job count", header("Jobs", 1<<25), "jobs or 2 events out of range"},
		{"negative event count", header("Events", -1), "-1 events out of range"},
		{"no usable memory", edit(func(s *snapDoc) {
			s.Header["Cluster"].(map[string]any)["Device"].(map[string]any)["UsableBytes"] = 0
		}), "has no usable memory"},
		{"list-form schedule", job(2, "Schedule", []int{512, 512}), "cannot unmarshal array"},
		{"bad schedule", job(2, "Schedule", "512x0"), "job 2: bad batch schedule"},
		{"zero iterations", job(2, "Iterations", 0), "job 2 has 0 iterations"},
		{"zero gang size", job(2, "GPUs", 0), "job 2 has gang size 0"},
		{"no iteration times", job(0, "IterTimes", nil), "job 0 has no iteration times"},
		{"iteration time missing for a batch", job(0, "IterTimes", map[string]int{"33": 5}), "job 0: no iteration time for batch 32"},
		{"remaining above iterations", job(0, "Remaining", 7), "job 0 has 7 of 6 iterations remaining"},
		{"negative remaining", job(0, "Remaining", -1), "job 0 has -1 of 6 iterations remaining"},
		{"device out of range", job(0, "Device", 2), "job 0 on device 2 of 2"},
		{"gang member out of range", job(0, "Gang", []int{0, 5}), "job 0 gang member 5 of 2 devices"},
		{"gang not ascending", job(0, "Gang", []int{0, 0}), "job 0 gang not strictly ascending"},
		{"placed job not leading its gang", job(0, "Gang", []int{1}), "job 0 on device 0 but placed on [1]"},
		{"negative all-reduce price", job(0, "GangAR", -1), "job 0 has negative all-reduce price"},
		{"resident outside its gang", dev(1, "Resident", []int{1, 0}), "job 0 resident on dev 1 but placed on [0]"},
		{"resident out of range", dev(0, "Resident", []int{9}), "resident list references job 9 of 3"},
		{"cursor out of range", dev(0, "RR", 1), "dev 0: round-robin cursor 1 out of range"},
		{"cursor without residents", edit(func(s *snapDoc) {
			delete(s.Devs[0], "Resident")
			s.Devs[0]["RR"] = 1
		}), "dev 0: round-robin cursor 1 with no residents"},
		{"high-water mark below residents", dev(0, "MaxRes", 0), "dev 0: 1 residents above high-water mark 0"},
		{"failed device with residents", dev(0, "Failed", true), "dev 0 failed but has residents or in-flight work"},
		{"negative downtime", dev(0, "Down", -5), "dev 0 has negative fault counters"},
		{"pending out of range", header("Pending", []int{9}), "pending list references job 9 of 3"},
		{"event class", event(0, "Class", 7), "event 0 has class 7"},
		{"event class overflow", event(0, "Class", 300), "cannot unmarshal number 300"},
		{"event job out of range", event(0, "Job", 9), "event references job 9 of 3"},
		{"event device out of range", event(0, "Dev", 5), "event 0 references device 5 of 2"},
		{"no end", edit(func(s *snapDoc) { s.Tail = nil }), "unexpected end of snapshot"},
		{"wrong end marker", edit(func(s *snapDoc) { s.Tail[0] = "fin" }), `want end marker, got "fin"`},
		{"records after end", edit(func(s *snapDoc) { s.Tail = append(s.Tail, "end") }), "1 records after the end marker"},
	}
	for _, tc := range cases {
		_, err := RestoreIncremental(tc.data, nil)
		if err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}

// TestSnapshotRefusesInexactValues: a value JSON would rewrite
// (invalid UTF-8) or cannot write (NaN, ±Inf) fails the encode with
// ErrSnapshotValue and leaves dst unchanged, never a panic or a
// snapshot that restores to a different value.
func TestSnapshotRefusesInexactValues(t *testing.T) {
	paused := func(id string) *Incremental {
		inc, err := NewIncremental(testCluster(), Packing, nil)
		if err != nil {
			t.Fatal(err)
		}
		j := testJobs()[0]
		j.ID = id
		if _, err := inc.Append(j); err != nil {
			t.Fatal(err)
		}
		return inc
	}
	badName := paused("a")
	badName.ex.cluster.Device.Name = "K40\xc0"
	nanLink := paused("a")
	nanLink.ex.cluster.Topology.NVLink.BytesPerSec = math.NaN()
	infIntegral := paused("a")
	infIntegral.ex.devs[1].memIntegral = math.Inf(1)
	for name, inc := range map[string]*Incremental{
		"invalid UTF-8 job id":      paused("big-\xff"),
		"invalid UTF-8 device name": badName,
		"NaN link bandwidth":        nanLink,
		"infinite memory integral":  infIntegral,
	} {
		out, err := AppendSnapshot([]byte("prefix"), inc)
		if !errors.Is(err, ErrSnapshotValue) {
			t.Errorf("%s: err = %v, want ErrSnapshotValue", name, err)
		}
		if string(out) != "prefix" {
			t.Errorf("%s: dst changed on error", name)
		}
	}
	// Valid UTF-8 beyond ASCII, U+FFFD itself included, round-trips.
	const id = "job-é-�"
	restored, err := RestoreIncremental(mustSnapshot(t, paused(id)), nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := restored.ex.states[0].ID; got != id {
		t.Errorf("restored id %q, want %q", got, id)
	}
}

// TestSnapshotKeepsIsolatedSpillPool: the header carries the Cluster
// whole, so an isolated cluster's HostSpillBytes (ignored by admission,
// reported in Result.Cluster) survives the snapshot.
func TestSnapshotKeepsIsolatedSpillPool(t *testing.T) {
	c := Cluster{Device: hw.TeslaK40c, Devices: 2, HostSpillBytes: 5 * hw.GiB}
	inc, err := NewIncremental(c, Packing, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, j := range testJobs()[:4] {
		if _, err := inc.Append(j); err != nil {
			t.Fatal(err)
		}
	}
	inc.AdvanceTo(sim.Time(70 * sim.Millisecond))
	snap, err := AppendSnapshot(nil, inc)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := RestoreIncremental(snap, nil)
	if err != nil {
		t.Fatal(err)
	}
	want, err := inc.Result()
	if err != nil {
		t.Fatal(err)
	}
	got, err := restored.Result()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored result differs: cluster spill pool %d, want %d", got.Cluster.HostSpillBytes, want.Cluster.HostSpillBytes)
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
	// Deliver the arrival by hand: list the job as pending and drop its
	// queued arrival event.
	return editSnap(t, mustSnapshot(t, inc), func(s *snapDoc) {
		if len(s.Events) != 1 || num(s.Events[0]["Class"]) != classArrival || num(s.Events[0]["Job"]) != 0 {
			t.Fatalf("unexpected snapshot events: %v", s.Events)
		}
		s.Header["Pending"] = []int{0}
		s.Header["Events"] = 0
		s.Events = nil
	})
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
	sorted := mustSnapshot(t, inc)
	outOfOrder := editSnap(t, sorted, func(s *snapDoc) {
		pending, _ := s.Header["Pending"].([]any)
		if len(pending) < 2 {
			t.Fatalf("want at least two pending jobs, got %v", pending)
		}
		slices.Reverse(pending)
	})

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
		if again := mustSnapshot(t, restored); !bytes.Equal(again, sorted) {
			t.Errorf("%s: re-encoded snapshot is not the sorted original:\n%s", tc.name, again)
		}
	}
}

// mustSnapshot is AppendSnapshot(nil, inc) for a replay the test
// knows to be encodable.
func mustSnapshot(t testing.TB, inc *Incremental) []byte {
	t.Helper()
	b, err := AppendSnapshot(nil, inc)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// snapText joins a framed snapshot's record payloads into one text,
// newline-separated records, the form the fuzzer edits; it stops at
// the first bad frame.
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

// snapDoc is a snapshot decoded for editing, record by record. Numbers
// stay json.Number, so every integer survives an edit exactly.
type snapDoc struct {
	Header map[string]any
	Jobs   []map[string]any
	Devs   []map[string]any
	Events []map[string]any
	Tail   []any // the end record and anything after it
}

// editSnap decodes the snapshot b, applies edit to its records and
// frames them again. Counts in the header are not adjusted.
func editSnap(t testing.TB, b []byte, edit func(s *snapDoc)) []byte {
	t.Helper()
	lines, err := workload.ReadLines(b)
	if err != nil {
		t.Fatal(err)
	}
	recs := make([]any, len(lines))
	for i, ln := range lines {
		dec := json.NewDecoder(strings.NewReader(ln))
		dec.UseNumber()
		if err := dec.Decode(&recs[i]); err != nil {
			t.Fatalf("record %d: %v", i+1, err)
		}
	}
	objs := func(n int) []map[string]any {
		out := make([]map[string]any, n)
		for i := range out {
			out[i] = recs[0].(map[string]any)
			recs = recs[1:]
		}
		return out
	}
	s := &snapDoc{Header: objs(1)[0]}
	s.Jobs = objs(num(s.Header["Jobs"]))
	s.Devs = objs(num(s.Header["Cluster"].(map[string]any)["Devices"]))
	s.Events = objs(num(s.Header["Events"]))
	s.Tail = recs
	edit(s)

	var text bytes.Buffer
	add := func(v any) {
		rec, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		text.Write(rec)
		text.WriteByte('\n')
	}
	add(s.Header)
	for _, group := range [][]map[string]any{s.Jobs, s.Devs, s.Events} {
		for _, r := range group {
			add(r)
		}
	}
	for _, r := range s.Tail {
		add(r)
	}
	return snapFrames(text.String())
}

// num is an edited record's integer field (0 when absent).
func num(v any) int {
	if v == nil {
		return 0
	}
	n, err := v.(json.Number).Int64()
	if err != nil {
		panic(err)
	}
	return int(n)
}

// fuzzDrainLimit bounds the iterations a fuzzed snapshot may ask the
// drain to simulate: an edited count can otherwise request billions.
const fuzzDrainLimit = 10000

// FuzzRestoreIncremental asserts the snapshot decoder never panics on
// record text — the fuzzer edits field values inside records, which
// frames would only checksum away — and that anything it accepts
// re-encodes, restores again and drains without panicking. Torn and
// bit-flipped frames are covered by the frame tests.
func FuzzRestoreIncremental(f *testing.F) {
	seed := func(c Cluster, p Policy, jobs []Job, at sim.Time) string {
		inc, err := NewIncremental(c, p, nil)
		if err != nil {
			f.Fatal(err)
		}
		for _, j := range jobs {
			if _, err := inc.Append(j); err != nil {
				f.Fatal(err)
			}
		}
		inc.AdvanceTo(at)
		return snapText(mustSnapshot(f, inc))
	}
	f.Add(seed(testCluster(), Packing, testJobs(), sim.Time(70*sim.Millisecond)))
	// A mid-outage seed: a failed device, a shrunk gang and a queued
	// recovery event exercise the fault state.
	fcl, fjobs := faultCluster(f)
	f.Add(seed(fcl, TopoPacking, fjobs, ms(2500)))
	// The same outage under a preemptive policy carries the preemption
	// summary through restore.
	f.Add(seed(fcl, Priority, fjobs, ms(2500)))
	f.Add(snapText(idleFitSnapshot(f)))
	// An empty replay, whole and cut after its header record.
	empty := seed(testCluster(), Packing, nil, 0)
	f.Add(empty)
	f.Add(empty[:strings.IndexByte(empty, '\n')+1])
	// A cross-job seed: planner demands with tensor keys.
	cj := JobsFromTrace(workload.CoTenantTrace())
	slices.SortStableFunc(cj, func(a, b Job) int { return cmp.Compare(a.Arrival, b.Arrival) })
	f.Add(seed(coTenantCluster(true), Packing, cj[:8], cj[8].Arrival))
	f.Fuzz(func(t *testing.T, text string) {
		restored, err := RestoreIncremental(snapFrames(text), nil)
		if err != nil {
			return
		}
		// Restore rebuilds the free-capacity and preemption summaries
		// from the restored jobs and devices, failed flags included;
		// clone rebuilds the first and copies the second.
		if want := rebuiltFree(restored.ex); !slices.Equal(restored.ex.free, want) {
			t.Fatalf("restored free-capacity summary %v, rebuild gives %v", restored.ex.free, want)
		}
		if bad := summaryMismatch(restored.ex); bad != "" {
			t.Fatalf("restored preemption summary: %s", bad)
		}
		if c := restored.ex.clone(); !slices.Equal(c.free, rebuiltFree(c)) {
			t.Fatalf("cloned free-capacity summary %v, rebuild gives %v", c.free, rebuiltFree(c))
		} else if bad := summaryMismatch(c); bad != "" {
			t.Fatalf("cloned preemption summary: %s", bad)
		}
		// Decoded strings are valid UTF-8 and decoded floats finite, so
		// an accepted snapshot re-encodes, and the re-encoding restores.
		again, err := AppendSnapshot(nil, restored)
		if err != nil {
			t.Fatalf("accepted snapshot does not re-encode: %v", err)
		}
		r2, err := RestoreIncremental(again, nil)
		if err != nil {
			t.Fatalf("re-encoded snapshot rejected: %v", err)
		}
		work := 0
		for _, js := range restored.ex.states {
			work += min(js.remaining, fuzzDrainLimit+1)
		}
		if work > fuzzDrainLimit {
			return
		}
		// Drain cleanly (errors fine, panics not), keeping the summary
		// in step.
		r2.Result()
		restored.ex.processUntil(-1)
		if want := rebuiltFree(restored.ex); !slices.Equal(restored.ex.free, want) {
			t.Fatalf("drained free-capacity summary %v, rebuild gives %v", restored.ex.free, want)
		}
		if bad := summaryMismatch(restored.ex); bad != "" {
			t.Fatalf("drained preemption summary: %s", bad)
		}
	})
}
