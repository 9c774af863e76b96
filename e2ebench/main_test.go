package main

import (
	"bytes"
	"errors"
	"io"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"
)

// TestMain lets the smoke test's cold-start children re-execute this
// test binary as the benchmark program.
func TestMain(m *testing.M) {
	if len(os.Args) > 1 && os.Args[1] == "-cold-start" {
		main()
		os.Exit(0)
	}
	os.Exit(m.Run())
}

func TestSupportedTail(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{0, 0, false}, {19, 0, false}, {20, 0.5, true}, {99, 0.5, true},
		{100, 0.9, true}, {999, 0.9, true}, {1000, 0.99, true}, {10000, 0.999, true},
	} {
		got, ok := supportedTail(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("supportedTail(%d) = %v, %v; want %v, %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestSummarizeWithoutQualifyingTail(t *testing.T) {
	var d []time.Duration
	for i := 1; i <= 10; i++ {
		d = append(d, time.Duration(i)*time.Millisecond)
	}
	tm := summarize(d)
	if tm.Tail != "none" || tm.TailMS != 0 {
		t.Errorf("10 samples: tail %q %v, want none", tm.Tail, tm.TailMS)
	}
	if tm.N != 10 || tm.P50MS != 5.5 || tm.MaxMS != 10 || tm.MeanMS != 5.5 {
		t.Errorf("summary %+v", tm)
	}
	if p := percentile([]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9); math.Abs(p-9.1) > 1e-9 {
		t.Errorf("p90 = %v, want 9.1", p)
	}

	d = append(d, d...) // 20 samples: the median has ten above it
	if tm := summarize(d); tm.Tail != "p50" || tm.TailMS != tm.P50MS {
		t.Errorf("20 samples: tail %q %v, want p50 %v", tm.Tail, tm.TailMS, tm.P50MS)
	}
}

// TestPunctualSeconds: the quarter of the seconds (rounded up) with the
// lowest lateness p99 is taken; the check reads the best second.
func TestPunctualSeconds(t *testing.T) {
	ms := func(vs ...int) []time.Duration {
		var w []time.Duration
		for _, v := range vs {
			w = append(w, time.Duration(v)*time.Millisecond)
		}
		return w
	}
	late := [][]time.Duration{ms(1, 9), ms(3), ms(30), ms(1, 1, 2), ms(7)}
	var acks [][]opSample
	for i := range late {
		acks = append(acks, []opSample{{took: time.Duration(i)}})
	}
	sel, p99 := punctualSeconds(acks, late)
	// p99 by second: 8.92, 3, 30, 1.98, 7 -> the best two are 3 and 1.
	if want := []opSample{{took: 3}, {took: 1}}; !reflect.DeepEqual(sel, want) {
		t.Errorf("selected %v, want the acks of seconds 3 and 1", sel)
	}
	if math.Abs(p99.best-1.98) > 1e-9 || p99.worst != 3 {
		t.Errorf("lateness p99 %+v, want best 1.98, worst 3", p99)
	}
}

// TestOpenLoopChargesStallsFromDueTime stalls one response on a single
// connection: the requests due during the stall are charged from their
// due times, while the generator's own lateness stays small.
func TestOpenLoopChargesStallsFromDueTime(t *testing.T) {
	const stall = 60 * time.Millisecond
	var events []event
	for i := range 6 {
		events = append(events, event{due: time.Duration(i) * 5 * time.Millisecond})
	}
	calls := 0
	samples := openLoop(events, 1, func(ev event) error {
		calls++
		if ev.due == 5*time.Millisecond {
			time.Sleep(stall)
			return errors.New("stalled")
		}
		return nil
	})
	if calls != len(events) {
		t.Fatalf("%d calls, want %d", calls, len(events))
	}
	stallEnd := 5*time.Millisecond + stall
	for i, s := range samples[2:] {
		if s.done < stallEnd {
			t.Errorf("request %d finished at %v, before the stall ended at %v", i+2, s.done, stallEnd)
		}
		if want := stallEnd - s.due; s.latency() < want {
			t.Errorf("request %d (due %v): latency %v, want >= %v charged from its due time", i+2, s.due, s.latency(), want)
		}
		if s.lateness() > 20*time.Millisecond {
			t.Errorf("request %d: generator lateness %v counts the stall; it must not", i+2, s.lateness())
		}
	}
	if samples[1].err == nil || samples[0].err != nil {
		t.Errorf("errors not recorded per request: %v, %v", samples[0].err, samples[1].err)
	}
}

// TestSegmentsRebaseDueTimes: the open-loop schedule is played one
// segment at a time, each with due times from its own start.
func TestSegmentsRebaseDueTimes(t *testing.T) {
	ms := func(v int) time.Duration { return time.Duration(v) * time.Millisecond }
	events := []event{{due: ms(200)}, {due: ms(900), kind: opRead}, {due: ms(1100), sub: 1}, {due: ms(3500), sub: 2}}
	want := [][]event{
		{{due: ms(200)}, {due: ms(900), kind: opRead}},
		{{due: ms(100), sub: 1}},
		nil,
		{{due: ms(500), sub: 2}},
	}
	if got := segments(events, time.Second); !reflect.DeepEqual(got, want) {
		t.Errorf("segments = %+v, want %+v", got, want)
	}
}

// TestSpeedScaling: a duration is scaled by refNominal over the median
// kernel time of the marks nearest to it.
func TestSpeedScaling(t *testing.T) {
	var marks []speedMark
	for i := range 7 {
		marks = append(marks, speedMark{AtNS: int64(i) * int64(10*time.Millisecond), TookNS: int64(i+1) * int64(refNominal)})
	}
	for _, c := range []struct {
		marks []speedMark
		at    time.Duration
		want  float64
	}{
		{nil, 0, 1},
		{marks, 25 * time.Millisecond, 1.0 / 3}, // marks 0-40 ms: took 1..5
		{marks, 31 * time.Millisecond, 1.0 / 4}, // marks 10-50 ms: took 2..6
		{marks, time.Second, 1.0 / 5},           // the last five: took 3..7
		{marks[:2], time.Second, 1 / 1.5},       // fewer than five: all of them
	} {
		if got := factorAt(c.marks, c.at); math.Abs(got-c.want) > 1e-12 {
			t.Errorf("factorAt(%d marks, %v) = %v, want %v", len(c.marks), c.at, got, c.want)
		}
	}
	// A 40 ms operation starting at 11 ms is scaled at its midpoint, 31 ms.
	got := scaled(marks, []opSample{{at: 11 * time.Millisecond, took: 40 * time.Millisecond}})
	if got[0] != 10*time.Millisecond {
		t.Errorf("scaled = %v, want 10ms", got[0])
	}
}

func TestSelfTimeSubtractsChildUnion(t *testing.T) {
	parent := span{StartNS: 0, EndNS: 100}
	kids := []span{{StartNS: 10, EndNS: 50}, {StartNS: 30, EndNS: 70}, {StartNS: 90, EndNS: 150}}
	// covered: [10,70] and [90,100] = 70
	if got := selfTime(parent, kids); got != 30 {
		t.Errorf("self time %v, want 30ns", got)
	}
}

func TestExplainArithmetic(t *testing.T) {
	ms := func(v int64) int64 { return v * int64(time.Millisecond) }
	spans := []span{
		// op 1: 10 ms; decode 2 ms; status 6 ms of which render 1 ms.
		{ID: 1, Workload: "w", Name: "ack", StartNS: ms(0), EndNS: ms(10)},
		{ID: 2, Parent: 1, Workload: "w", Name: "decode", StartNS: ms(0), EndNS: ms(2)},
		{ID: 3, Parent: 1, Workload: "w", Name: "status", StartNS: ms(3), EndNS: ms(9)},
		{ID: 4, Parent: 3, Workload: "w", Name: "render", StartNS: ms(5), EndNS: ms(6)},
		// op 2: 6 ms; decode 2 ms; status 2 ms.
		{ID: 5, Workload: "w", Name: "ack", StartNS: ms(20), EndNS: ms(26)},
		{ID: 6, Parent: 5, Workload: "w", Name: "decode", StartNS: ms(20), EndNS: ms(22)},
		{ID: 7, Parent: 5, Workload: "w", Name: "status", StartNS: ms(22), EndNS: ms(24)},
		// another workload's op is not counted
		{ID: 8, Workload: "other", Name: "ack", StartNS: ms(30), EndNS: ms(99)},
	}
	sum := &report{Workload: "w", Ops: map[string]timing{"ack": {N: 100, MeanMS: 12}}}
	exs := explain(sum, spans, nil)
	if len(exs) != 1 {
		t.Fatalf("%d explanations, want 1", len(exs))
	}
	ex := exs[0]
	want := []layerRow{
		{Name: "status", CallsPerOp: 1, MSPerOp: 3.5}, // (5 + 2) / 2
		{Name: "decode", CallsPerOp: 1, MSPerOp: 2},
		{Name: "render", CallsPerOp: 0.5, MSPerOp: 0.5},
	}
	if !reflect.DeepEqual(ex.Rows, want) {
		t.Errorf("rows %+v, want %+v", ex.Rows, want)
	}
	if ex.TracedOps != 2 || ex.SumMS != 6 || ex.RemainderMS != 6 || ex.EndToEndMS != 12 {
		t.Errorf("explanation %+v: want 2 ops, sum 6 ms, remainder 6 ms of 12", ex)
	}
	var out bytes.Buffer
	ex.print(&out)
	for _, s := range []string{"remainder (unaccounted)", "50.0%", "29.2%"} {
		if !strings.Contains(out.String(), s) {
			t.Errorf("explain output lacks %q:\n%s", s, out.String())
		}
	}
}

// TestInputsFollowTheSeed: the same seed gives the same inputs, another
// seed other inputs with the same job mix.
func TestInputsFollowTheSeed(t *testing.T) {
	a, b, c := genSubmissions(7, 1, 28, 8), genSubmissions(7, 1, 28, 8), genSubmissions(8, 1, 28, 8)
	if !reflect.DeepEqual(a, b) || reflect.DeepEqual(a, c) {
		t.Error("genSubmissions is not a function of its seed")
	}
	if x, y := genSchedule(7, time.Second, 800, 200), genSchedule(7, time.Second, 800, 200); !reflect.DeepEqual(x, y) {
		t.Error("genSchedule is not a function of its seed")
	}
	// Each deck of len(templates) submissions deals every template once.
	mix := func(subs []submission) map[string]int {
		m := map[string]int{}
		for _, s := range subs {
			body := string(s.body)
			body = body[strings.Index(body, `"network"`):]
			m[body]++
		}
		return m
	}
	if !reflect.DeepEqual(mix(a), mix(c)) {
		t.Error("two seeds submit different job mixes")
	}
	s1, err := schedInputs(3, 1, []string{"cotenant"})
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := schedInputs(3, 1, []string{"cotenant"})
	s3, _ := schedInputs(3, 2, []string{"cotenant"})
	s0, _ := schedInputs(0, 1, []string{"cotenant"})
	if !reflect.DeepEqual(s1, s2) || reflect.DeepEqual(s1, s3) || reflect.DeepEqual(s1, s0) {
		t.Error("schedInputs is not a function of its seed and variant")
	}
	if len(s1[0].jobs) != len(s0[0].jobs) {
		t.Errorf("resampled trace has %d jobs, bundled %d", len(s1[0].jobs), len(s0[0].jobs))
	}
}

// TestSmokeAllWorkloads runs every workload, then the traced pass and
// explain, at toy scale against a freshly built snserved.
func TestSmokeAllWorkloads(t *testing.T) {
	root, err := filepath.Abs("..")
	if err != nil {
		t.Fatal(err)
	}
	out := t.TempDir()
	base := options{root: root, out: out, scratch: t.TempDir(), window: 300 * time.Millisecond}
	var summaries []string
	for _, w := range workloadNames() {
		o := base
		o.workload, o.seed = w, 1
		if w == "sched-replay" {
			o.seed = 0 // exercises the golden digests
		}
		var table bytes.Buffer
		res, err := run(o, toyScale, &table)
		if err != nil {
			t.Fatalf("%s: %v", w, err)
		}
		if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
			t.Errorf("%s: correct %v, attempted %d, failed %d\n%s", w, res.Correct, res.Attempted, res.Failed, table.String())
		}
		for _, m := range []string{"setup_s", "op_p50_ms", "op_p90_ms"} {
			if v := res.Metrics[m].Value; !(v > 0) {
				t.Errorf("%s: metric %s = %v, want > 0", w, m, v)
			}
		}
		summaries = append(summaries, filepath.Join(out, "summary."+w+".json"))
	}

	o := base
	o.workload, o.seed, o.traced = "serve-dense", 1, true
	res, err := run(o, toyScale, io.Discard)
	if err != nil {
		t.Fatalf("traced: %v", err)
	}
	if !res.Correct || res.Failed != 0 {
		t.Errorf("traced: correct %v, failed %d", res.Correct, res.Failed)
	}
	for _, m := range []string{"serve.dense.status_us", "serve.sparse.sequence_us", "serve.sparse.read_us",
		"serve.dense.active_jobs", "sched.cotenant.packing.run_ms", "sched.cotenant.demands_ms", "experiments.table1_ms"} {
		if _, ok := res.Metrics[m]; !ok {
			t.Errorf("traced run lacks per-layer metric %s", m)
		}
	}

	var buf bytes.Buffer
	if err := explainMain(append([]string{"-spans", filepath.Join(out, "spans.json")}, summaries...), &buf); err != nil {
		t.Fatalf("explain: %v", err)
	}
	for _, s := range []string{"serve-dense ack", "serve-sparse read", "sched-replay pass", "sim-eval pass", "remainder"} {
		if !strings.Contains(buf.String(), s) {
			t.Errorf("explain output lacks %q", s)
		}
	}
}
