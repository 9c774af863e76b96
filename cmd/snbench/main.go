// Command snbench is the benchmark-baseline pipeline behind CI's
// bench-baseline job: it turns `go test -bench` output into a stable
// JSON summary and gates a new summary against a committed baseline.
//
//	go test -run '^$' -bench <regex> -benchtime=1x -count=3 -benchmem . | snbench parse > BENCH_new.json
//	snbench compare [-tolerance 0.25] BENCH_baseline.json BENCH_new.json
//
// parse keeps, per benchmark, the MINIMUM ns/op across the -count
// repetitions — the least-noise estimator for a deterministic
// simulation workload — plus the repetition count. With -benchmem in
// the input it also records allocs/op and B/op (minimum across
// repetitions); the artifact is then schema 2. Schema-1 files (no
// allocation data) are still read and gated on ns/op only, so an old
// committed baseline keeps working.
//
// compare fails (exit 1) when any baseline benchmark is missing from
// the new summary, slower than baseline by more than the tolerance
// (default 0.25 = +25% ns/op), or — when both sides carry allocation
// data — allocating more than tolerance above baseline. Benchmarks
// where both sides run under the floor (-floor, default 10µs) are
// reported but not ns/op-gated: at that scale timer jitter, not code,
// decides the ratio. Allocation counts are gated even under the time
// floor, but a regression needs to exceed -allocfloor extra allocs/op
// (default 16) as well as the tolerance ratio. Allocation counts are
// not deterministic: the simulator's run arenas come from a sync.Pool
// that the garbage collector empties, and a GC cycle allocates runtime
// objects of its own, so a benchmark's count moves with GC timing and
// with what the benchmarks before it left behind. The minimum over
// -count repetitions damps that; the slack absorbs the rest, and ±1
// alloc on a zero-alloc micro-benchmark does not fail the build.
// Benchmarks new in this run are reported and pass.
//
// To refresh the committed baseline after an intentional perf change:
//
//	go test -run '^$' -bench <regex> -benchtime=1x -count=3 -benchmem . ./internal/gpumem | snbench parse > BENCH_baseline.json
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"

	"repro/internal/metrics"
)

// Summary is the JSON artifact: one entry per benchmark.
type Summary struct {
	Schema     int                  `json:"schema"`
	Benchmarks map[string]BenchStat `json:"benchmarks"`
}

// BenchStat summarizes one benchmark across -count repetitions.
type BenchStat struct {
	// NsPerOp is the minimum ns/op observed.
	NsPerOp float64 `json:"ns_per_op"`
	// Runs is how many repetitions were folded in.
	Runs int `json:"runs"`
	// AllocsPerOp and BytesPerOp are the minimum allocation counts
	// observed, present only when the bench output carried -benchmem
	// columns (schema 2). Pointers distinguish "recorded as zero" from
	// "not recorded" so a schema-1 baseline is never allocation-gated.
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("snbench: ")
	if len(os.Args) < 2 {
		log.Fatal("usage: snbench parse < bench-output | snbench compare [-tolerance f] [-floor ns] baseline.json new.json")
	}
	switch os.Args[1] {
	case "parse":
		sum, err := parseBench(os.Stdin)
		if err != nil {
			log.Fatal(err)
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(sum); err != nil {
			log.Fatal(err)
		}
	case "compare":
		fs := flag.NewFlagSet("compare", flag.ExitOnError)
		var opts gateOpts
		fs.Float64Var(&opts.Tolerance, "tolerance", 0.25, "allowed regression fraction for ns/op and allocs/op (0.25 = +25%)")
		fs.Float64Var(&opts.Floor, "floor", 10_000, "ns/op below which timing is reported but not gated")
		fs.Float64Var(&opts.AllocFloor, "allocfloor", 16, "extra allocs/op a regression must exceed before it is gated")
		_ = fs.Parse(os.Args[2:])
		if fs.NArg() != 2 {
			log.Fatal("usage: snbench compare [-tolerance f] [-floor ns] [-allocfloor n] baseline.json new.json")
		}
		base, err := readSummary(fs.Arg(0))
		if err != nil {
			log.Fatal(err)
		}
		cur, err := readSummary(fs.Arg(1))
		if err != nil {
			log.Fatal(err)
		}
		if err := compare(base, cur, opts, os.Stdout); err != nil {
			log.Fatal(err)
		}
	default:
		log.Fatalf("unknown subcommand %q (have parse, compare)", os.Args[1])
	}
}

// benchLine matches one `go test -bench` result line, e.g.
//
//	BenchmarkPoolAllocFree-8   1   14041 ns/op   336 B/op   2 allocs/op
//
// capturing the name (GOMAXPROCS suffix stripped), ns/op, and — when
// the run used -benchmem — B/op and allocs/op. Custom metrics such as
// req/s may sit between ns/op and the memory columns.
//
// At GOMAXPROCS=1 `go test` appends no suffix, so a name that itself
// ends in -N would lose it: sub-benchmarks carry parameters as key=N
// (shards=4, cotenants=16), never as key-N.
var benchLine = regexp.MustCompile(`^(Benchmark\S*?)(?:-\d+)?\s+\d+\s+([0-9.]+) ns/op(?:.*\s([0-9]+) B/op\s+([0-9]+) allocs/op)?`)

// parseBench folds `go test -bench` output into a Summary, keeping
// the minimum per benchmark across repetitions for ns/op and, when
// present, for B/op and allocs/op.
func parseBench(r io.Reader) (*Summary, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	sum := &Summary{Schema: 2, Benchmarks: map[string]BenchStat{}}
	for _, line := range regexp.MustCompile(`\r?\n`).Split(string(data), -1) {
		m := benchLine.FindStringSubmatch(line)
		if m == nil {
			continue
		}
		ns, err := strconv.ParseFloat(m[2], 64)
		if err != nil {
			return nil, fmt.Errorf("snbench: bad ns/op in %q: %v", line, err)
		}
		st, seen := sum.Benchmarks[m[1]]
		if !seen || ns < st.NsPerOp {
			st.NsPerOp = ns
		}
		if m[3] != "" {
			bpo, err1 := strconv.ParseFloat(m[3], 64)
			apo, err2 := strconv.ParseFloat(m[4], 64)
			if err1 != nil || err2 != nil {
				return nil, fmt.Errorf("snbench: bad -benchmem columns in %q", line)
			}
			if st.BytesPerOp == nil || bpo < *st.BytesPerOp {
				st.BytesPerOp = &bpo
			}
			if st.AllocsPerOp == nil || apo < *st.AllocsPerOp {
				st.AllocsPerOp = &apo
			}
		}
		st.Runs++
		sum.Benchmarks[m[1]] = st
	}
	if len(sum.Benchmarks) == 0 {
		return nil, fmt.Errorf("snbench: no benchmark lines found in input")
	}
	return sum, nil
}

func readSummary(path string) (*Summary, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Summary
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("snbench: %s: %v", path, err)
	}
	if s.Benchmarks == nil {
		return nil, fmt.Errorf("snbench: %s: no benchmarks", path)
	}
	if s.Schema < 1 || s.Schema > 2 {
		return nil, fmt.Errorf("snbench: %s: unsupported schema %d (have 1, 2)", path, s.Schema)
	}
	return &s, nil
}

// gateOpts are the compare thresholds.
type gateOpts struct {
	// Tolerance is the allowed regression fraction, applied to both
	// ns/op and allocs/op (0.25 = +25%).
	Tolerance float64
	// Floor is the ns/op under which timing differences are reported
	// but not gated (timer jitter dominates there).
	Floor float64
	// AllocFloor is the absolute allocs/op increase a regression must
	// additionally exceed to be gated: slack for the GC-timing noise in
	// allocation counts. They are gated under the time floor too.
	AllocFloor float64
}

// compare renders the baseline-vs-new table and returns an error
// naming every gated regression or missing benchmark.
func compare(base, cur *Summary, opts gateOpts, w io.Writer) error {
	names := make([]string, 0, len(base.Benchmarks))
	for n := range base.Benchmarks {
		names = append(names, n)
	}
	sort.Strings(names)

	var failures []string
	t := metrics.NewTable(fmt.Sprintf("benchmark gate (tolerance +%.0f%%, floor %s, alloc floor %.0f)",
		100*opts.Tolerance, fmtNs(opts.Floor), opts.AllocFloor),
		"benchmark", "baseline", "new", "ratio", "allocs/op", "verdict")
	for _, n := range names {
		b := base.Benchmarks[n]
		c, ok := cur.Benchmarks[n]
		if !ok {
			failures = append(failures, fmt.Sprintf("%s: missing from new run", n))
			t.Add(n, fmtNs(b.NsPerOp), "-", "-", "-", "MISSING")
			continue
		}
		ratio := c.NsPerOp / b.NsPerOp
		verdict := "ok"
		switch {
		case b.NsPerOp < opts.Floor && c.NsPerOp < opts.Floor:
			verdict = "ok (under floor)"
		case ratio > 1+opts.Tolerance:
			verdict = "REGRESSION"
			failures = append(failures, fmt.Sprintf("%s: %s -> %s (%.2fx > %.2fx allowed)",
				n, fmtNs(b.NsPerOp), fmtNs(c.NsPerOp), ratio, 1+opts.Tolerance))
		}
		allocs := "-"
		if b.AllocsPerOp != nil && c.AllocsPerOp != nil {
			ba, ca := *b.AllocsPerOp, *c.AllocsPerOp
			allocs = fmt.Sprintf("%.0f -> %.0f", ba, ca)
			if ca > ba*(1+opts.Tolerance) && ca-ba > opts.AllocFloor {
				if verdict == "ok" || verdict == "ok (under floor)" {
					verdict = "REGRESSION (allocs)"
				}
				failures = append(failures, fmt.Sprintf("%s: allocs/op %.0f -> %.0f (+%.0f > +%.0f%% and > %.0f extra allowed)",
					n, ba, ca, ca-ba, 100*opts.Tolerance, opts.AllocFloor))
			}
		}
		t.Add(n, fmtNs(b.NsPerOp), fmtNs(c.NsPerOp), fmt.Sprintf("%.2f", ratio), allocs, verdict)
	}
	extra := make([]string, 0, len(cur.Benchmarks))
	for n := range cur.Benchmarks {
		if _, ok := base.Benchmarks[n]; !ok {
			extra = append(extra, n)
		}
	}
	sort.Strings(extra)
	for _, n := range extra {
		t.Add(n, "-", fmtNs(cur.Benchmarks[n].NsPerOp), "-", "-", "new (no baseline)")
	}
	fmt.Fprintln(w, t.String())
	if len(failures) > 0 {
		return fmt.Errorf("benchmark gate failed:\n  %s", strings.Join(failures, "\n  "))
	}
	fmt.Fprintf(w, "gate passed: %d benchmarks within +%.0f%% of baseline\n", len(names), 100*opts.Tolerance)
	return nil
}

// fmtNs renders ns/op with an adaptive unit.
func fmtNs(ns float64) string {
	switch {
	case ns >= 1e9:
		return fmt.Sprintf("%.2fs", ns/1e9)
	case ns >= 1e6:
		return fmt.Sprintf("%.2fms", ns/1e6)
	case ns >= 1e3:
		return fmt.Sprintf("%.2fus", ns/1e3)
	default:
		return fmt.Sprintf("%.0fns", ns)
	}
}
