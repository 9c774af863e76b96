package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkMultiTenantSchedulers/fifo-8         	       1	  53170531 ns/op
BenchmarkMultiTenantSchedulers/fifo-8         	       1	  41000000 ns/op
BenchmarkMultiTenantSchedulers/fifo-8         	       1	  47000000 ns/op
BenchmarkServeThroughput-8                    	       1	   2487912 ns/op	 1614 req/s
BenchmarkServeThroughput-8                    	       1	   2600000 ns/op	 1500 req/s
PASS
ok  	repro	1.013s
`

// sampleBenchMem mixes -benchmem output, a custom metric between the
// ns/op and memory columns, and a plain line without memory columns.
const sampleBenchMem = `goos: linux
BenchmarkFig14EndToEnd-8      	       1	 135187406 ns/op	114476240 B/op	 1083505 allocs/op
BenchmarkFig14EndToEnd-8      	       1	 140000000 ns/op	114480000 B/op	 1083999 allocs/op
BenchmarkServeThroughput-8    	       1	   2487912 ns/op	 1614 req/s	  123456 B/op	    2048 allocs/op
BenchmarkPoolScaling/index/spans=4096-8     	    2000	       277.7 ns/op	       0 B/op	       0 allocs/op
BenchmarkRouteConstruction-8  	      10	    900000 ns/op
PASS
`

func TestParseBenchKeepsMinAcrossRuns(t *testing.T) {
	sum, err := parseBench(strings.NewReader(sampleBench))
	if err != nil {
		t.Fatal(err)
	}
	fifo, ok := sum.Benchmarks["BenchmarkMultiTenantSchedulers/fifo"]
	if !ok {
		t.Fatalf("fifo benchmark missing: %v", sum.Benchmarks)
	}
	if fifo.NsPerOp != 41000000 || fifo.Runs != 3 {
		t.Errorf("fifo = %+v, want min 41000000 over 3 runs", fifo)
	}
	st, ok := sum.Benchmarks["BenchmarkServeThroughput"]
	if !ok || st.NsPerOp != 2487912 || st.Runs != 2 {
		t.Errorf("serve = %+v (ok=%v), want min 2487912 over 2 runs", st, ok)
	}
}

// TestParseBenchGOMAXPROCSSuffix feeds the same sub-benchmarks as
// `go test` prints them at GOMAXPROCS=1 (no suffix) and at GOMAXPROCS=8
// (-8): both must fold to the same per-parameter rows.
func TestParseBenchGOMAXPROCSSuffix(t *testing.T) {
	const line = "BenchmarkCrossJobPlanner/shared/cotenants=%d%s \t       1\t    300000 ns/op\t  136816 B/op\t    1528 allocs/op\n"
	for _, suffix := range []string{"", "-8"} {
		var in strings.Builder
		for rep := 0; rep < 3; rep++ {
			for _, n := range []int{1, 4, 16} {
				fmt.Fprintf(&in, line, n, suffix)
			}
		}
		sum, err := parseBench(strings.NewReader(in.String()))
		if err != nil {
			t.Fatal(err)
		}
		if len(sum.Benchmarks) != 3 {
			t.Errorf("suffix %q: %d rows, want 3: %v", suffix, len(sum.Benchmarks), sum.Benchmarks)
		}
		for _, n := range []int{1, 4, 16} {
			name := fmt.Sprintf("BenchmarkCrossJobPlanner/shared/cotenants=%d", n)
			if st, ok := sum.Benchmarks[name]; !ok || st.Runs != 3 {
				t.Errorf("suffix %q: %s = %+v (present %v), want 3 runs", suffix, name, st, ok)
			}
		}
	}
}

func TestParseBenchRejectsEmptyInput(t *testing.T) {
	if _, err := parseBench(strings.NewReader("PASS\nok repro 0.1s\n")); err == nil {
		t.Error("input without benchmark lines accepted")
	}
}

// TestParseBenchMemColumns covers the schema-2 path: allocs/op and
// B/op are folded with the per-column minimum, custom metrics between
// ns/op and the memory columns are skipped, and lines without memory
// columns leave the pointers nil.
func TestParseBenchMemColumns(t *testing.T) {
	sum, err := parseBench(strings.NewReader(sampleBenchMem))
	if err != nil {
		t.Fatal(err)
	}
	if sum.Schema != 2 {
		t.Errorf("schema = %d, want 2", sum.Schema)
	}
	fig := sum.Benchmarks["BenchmarkFig14EndToEnd"]
	if fig.AllocsPerOp == nil || *fig.AllocsPerOp != 1083505 {
		t.Errorf("Fig14 allocs = %v, want min 1083505", fig.AllocsPerOp)
	}
	if fig.BytesPerOp == nil || *fig.BytesPerOp != 114476240 {
		t.Errorf("Fig14 bytes = %v, want min 114476240", fig.BytesPerOp)
	}
	st := sum.Benchmarks["BenchmarkServeThroughput"]
	if st.AllocsPerOp == nil || *st.AllocsPerOp != 2048 {
		t.Errorf("serve allocs = %v, want 2048 despite the req/s column", st.AllocsPerOp)
	}
	zero := sum.Benchmarks["BenchmarkPoolScaling/index/spans=4096"]
	if zero.AllocsPerOp == nil || *zero.AllocsPerOp != 0 {
		t.Errorf("pool allocs = %v, want recorded zero", zero.AllocsPerOp)
	}
	plain := sum.Benchmarks["BenchmarkRouteConstruction"]
	if plain.AllocsPerOp != nil || plain.BytesPerOp != nil {
		t.Errorf("plain line grew memory columns: %+v", plain)
	}
}

func sum(pairs map[string]float64) *Summary {
	s := &Summary{Schema: 1, Benchmarks: map[string]BenchStat{}}
	for n, ns := range pairs {
		s.Benchmarks[n] = BenchStat{NsPerOp: ns, Runs: 3}
	}
	return s
}

// withAllocs upgrades a summary entry to schema 2 with the given
// allocs/op.
func withAllocs(s *Summary, name string, allocs float64) *Summary {
	s.Schema = 2
	st := s.Benchmarks[name]
	st.AllocsPerOp = &allocs
	s.Benchmarks[name] = st
	return s
}

var defaultGate = gateOpts{Tolerance: 0.25, Floor: 10_000, AllocFloor: 16}

func TestCompareWithinTolerancePasses(t *testing.T) {
	base := sum(map[string]float64{"BenchmarkA": 1e6, "BenchmarkB": 2e6})
	cur := sum(map[string]float64{"BenchmarkA": 1.2e6, "BenchmarkB": 1.8e6, "BenchmarkNew": 5e6})
	var out bytes.Buffer
	if err := compare(base, cur, defaultGate, &out); err != nil {
		t.Fatalf("compare failed within tolerance: %v\n%s", err, out.String())
	}
	for _, want := range []string{"gate passed", "new (no baseline)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}
}

func TestCompareFlagsRegression(t *testing.T) {
	base := sum(map[string]float64{"BenchmarkA": 1e6})
	cur := sum(map[string]float64{"BenchmarkA": 1.3e6})
	var out bytes.Buffer
	err := compare(base, cur, defaultGate, &out)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkA") {
		t.Fatalf("30%% regression passed the 25%% gate: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSION") {
		t.Errorf("table missing REGRESSION verdict:\n%s", out.String())
	}
}

func TestCompareFlagsMissingBenchmark(t *testing.T) {
	base := sum(map[string]float64{"BenchmarkA": 1e6, "BenchmarkGone": 1e6})
	cur := sum(map[string]float64{"BenchmarkA": 1e6})
	var out bytes.Buffer
	err := compare(base, cur, defaultGate, &out)
	if err == nil || !strings.Contains(err.Error(), "BenchmarkGone") {
		t.Fatalf("missing benchmark passed the gate: %v", err)
	}
}

func TestReadSummaryRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	want := sum(map[string]float64{"BenchmarkA": 1e6})
	data, _ := json.Marshal(want)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Benchmarks["BenchmarkA"].NsPerOp != 1e6 {
		t.Errorf("round trip = %+v", got)
	}
	if _, err := readSummary(filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing file accepted")
	}
	bad := filepath.Join(dir, "bad.json")
	_ = os.WriteFile(bad, []byte("{"), 0o644)
	if _, err := readSummary(bad); err == nil {
		t.Error("unparseable summary accepted")
	}
	empty := filepath.Join(dir, "empty.json")
	_ = os.WriteFile(empty, []byte("{}"), 0o644)
	if _, err := readSummary(empty); err == nil {
		t.Error("summary without benchmarks accepted")
	}
}

func TestFmtNsUnits(t *testing.T) {
	cases := map[float64]string{
		500:   "500ns",
		2_500: "2.50us",
		3e6:   "3.00ms",
		1.5e9: "1.50s",
		41e6:  "41.00ms",
	}
	for ns, want := range cases {
		if got := fmtNs(ns); got != want {
			t.Errorf("fmtNs(%g) = %q, want %q", ns, got, want)
		}
	}
}

// Sub-floor noise is reported but never gated: a 3x ratio between two
// nanosecond-scale timings is timer jitter, not a regression.
func TestCompareFloorExemptsNoise(t *testing.T) {
	base := sum(map[string]float64{"BenchmarkTiny": 200})
	cur := sum(map[string]float64{"BenchmarkTiny": 600})
	var out bytes.Buffer
	if err := compare(base, cur, defaultGate, &out); err != nil {
		t.Fatalf("sub-floor ratio gated: %v", err)
	}
	if !strings.Contains(out.String(), "under floor") {
		t.Errorf("floor verdict missing:\n%s", out.String())
	}
}

// A big allocs/op jump fails the gate even when ns/op is steady —
// that is the entire point of recording them.
func TestCompareFlagsAllocRegression(t *testing.T) {
	base := withAllocs(sum(map[string]float64{"BenchmarkA": 1e6}), "BenchmarkA", 1000)
	cur := withAllocs(sum(map[string]float64{"BenchmarkA": 1e6}), "BenchmarkA", 2000)
	var out bytes.Buffer
	err := compare(base, cur, defaultGate, &out)
	if err == nil || !strings.Contains(err.Error(), "allocs/op") {
		t.Fatalf("2x allocs/op passed the gate: %v", err)
	}
	if !strings.Contains(out.String(), "REGRESSION (allocs)") {
		t.Errorf("table missing allocs verdict:\n%s", out.String())
	}
}

// The absolute alloc floor keeps zero-alloc micro-benchmarks from
// failing on a ±few-alloc wobble even though the ratio is huge.
func TestCompareAllocFloorExemptsSmallCounts(t *testing.T) {
	base := withAllocs(sum(map[string]float64{"BenchmarkTiny": 200}), "BenchmarkTiny", 0)
	cur := withAllocs(sum(map[string]float64{"BenchmarkTiny": 210}), "BenchmarkTiny", 2)
	var out bytes.Buffer
	if err := compare(base, cur, defaultGate, &out); err != nil {
		t.Fatalf("+2 allocs/op gated: %v", err)
	}
}

// A schema-1 baseline (no allocation data) must still gate ns/op and
// silently skip the allocation gate — backward compatibility for the
// committed BENCH_baseline.json across the schema bump.
func TestCompareSchema1BaselineSkipsAllocGate(t *testing.T) {
	base := sum(map[string]float64{"BenchmarkA": 1e6})
	cur := withAllocs(sum(map[string]float64{"BenchmarkA": 1.1e6}), "BenchmarkA", 1e9)
	var out bytes.Buffer
	if err := compare(base, cur, defaultGate, &out); err != nil {
		t.Fatalf("schema-1 baseline tripped the alloc gate: %v", err)
	}
}

func TestReadSummaryRejectsUnknownSchema(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "future.json")
	_ = os.WriteFile(path, []byte(`{"schema":3,"benchmarks":{"BenchmarkA":{"ns_per_op":1,"runs":1}}}`), 0o644)
	if _, err := readSummary(path); err == nil {
		t.Error("schema 3 accepted")
	}
}

// TestSummaryRoundTripSchema2 pins the JSON shape of the schema-2
// artifact: allocs_per_op/bytes_per_op round-trip, absent columns stay
// absent.
func TestSummaryRoundTripSchema2(t *testing.T) {
	sum, err := parseBench(strings.NewReader(sampleBenchMem))
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(sum)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"allocs_per_op"`) {
		t.Fatalf("schema-2 JSON missing allocs_per_op: %s", data)
	}
	dir := t.TempDir()
	path := filepath.Join(dir, "s2.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := readSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	fig := got.Benchmarks["BenchmarkFig14EndToEnd"]
	if fig.AllocsPerOp == nil || *fig.AllocsPerOp != 1083505 {
		t.Errorf("round-tripped allocs = %v", fig.AllocsPerOp)
	}
	plain := got.Benchmarks["BenchmarkRouteConstruction"]
	if plain.AllocsPerOp != nil {
		t.Errorf("absent column materialized: %+v", plain)
	}
}
