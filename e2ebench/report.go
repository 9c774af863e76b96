package main

import (
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"io"
	"io/fs"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/metrics"
)

// stat is one reported number with its unit and the sample count
// behind it.
type stat struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
	N     int     `json:"n"`
}

// report is everything one run measured. It is written as the run's
// summary (end-to-end) or span file (traced) and printed as tables.
type report struct {
	Workload string  `json:"workload"`
	Seed     uint64  `json:"seed"`
	Traced   bool    `json:"traced"`
	WindowS  float64 `json:"window_s"`
	Env      envInfo `json:"env"`

	Attempted int `json:"attempted"`
	Failed    int `json:"failed"`

	// Metrics are the metrics BENCHMARK.json names: the end-to-end set,
	// or the per-layer set of a traced run.
	Metrics map[string]stat `json:"metrics"`
	// Extra are workload-specific numbers BENCHMARK.json does not name
	// (read latency, restart recovery, the ack p99 ...).
	Extra map[string]stat `json:"extra,omitempty"`
	// Ops summarizes each operation kind's latency; explain matches
	// them to the traced root spans of the same name.
	Ops map[string]timing `json:"ops,omitempty"`
	// Lateness is how late the open-loop generator dispatched requests
	// relative to their due times.
	Lateness *timing `json:"lateness,omitempty"`
	// Digests are the output digests the correctness checks compared.
	Digests map[string]string `json:"digests,omitempty"`

	Checks   []string `json:"checks"`
	Failures []string `json:"failures,omitempty"`

	Spans []span `json:"spans,omitempty"`
	// Speed are the run's reference-kernel timings, by which every
	// reported time (and explain's span times) is scaled.
	Speed []speedMark `json:"speed_marks"`
}

func newReport(o options) *report {
	return &report{
		Workload: o.workload, Seed: o.seed, Traced: o.traced, WindowS: o.window.Seconds(),
		Metrics: map[string]stat{}, Extra: map[string]stat{}, Ops: map[string]timing{},
	}
}

// check records a named correctness check: err == nil passes.
func (r *report) check(name string, err error) {
	if err != nil {
		r.Failures = append(r.Failures, fmt.Sprintf("%s: %v", name, err))
		return
	}
	r.Checks = append(r.Checks, name)
}

// print renders the run as tables: every metric with its unit and
// sample count, the per-operation latency summaries, and the checks.
func (r *report) print(w io.Writer) {
	title := fmt.Sprintf("%s seed %d: end-to-end metrics", r.Workload, r.Seed)
	if r.Traced {
		title = fmt.Sprintf("traced pass (seed %d): per-layer metrics", r.Seed)
	}
	t := metrics.NewTable(title, "metric", "value", "unit", "n")
	for _, name := range sortedKeys(r.Metrics) {
		m := r.Metrics[name]
		t.Add(name, fmtValue(m.Value), m.Unit, fmt.Sprint(m.N))
	}
	for _, name := range sortedKeys(r.Extra) {
		m := r.Extra[name]
		t.Add(name+" (extra)", fmtValue(m.Value), m.Unit, fmt.Sprint(m.N))
	}
	fmt.Fprintln(w, t.String())

	if len(r.Ops) > 0 || r.Lateness != nil {
		ot := metrics.NewTable("latency by operation (ms)", "op", "n", "mean", "p50", "p90", "p99", "max", "tail rule")
		add := func(name string, tm timing) {
			ot.Add(name, fmt.Sprint(tm.N), fmtValue(tm.MeanMS), fmtValue(tm.P50MS), fmtValue(tm.P90MS),
				fmtValue(tm.P99MS), fmtValue(tm.MaxMS), tm.Tail)
		}
		for _, name := range sortedKeys(r.Ops) {
			add(name, r.Ops[name])
		}
		if r.Lateness != nil {
			add("generator lateness", *r.Lateness)
		}
		fmt.Fprintln(w, ot.String())
	}
	fmt.Fprintf(w, "attempted %d, failed %d; %d checks passed\n", r.Attempted, r.Failed, len(r.Checks))
	for _, f := range r.Failures {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", f)
	}
}

func fmtValue(v float64) string {
	switch a := math.Abs(v); {
	case a == 0:
		return "0"
	case a >= 100:
		return fmt.Sprintf("%.1f", v)
	case a >= 1:
		return fmt.Sprintf("%.3f", v)
	default:
		return fmt.Sprintf("%.4g", v)
	}
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

// envInfo is the run hygiene recorded with every summary.
type envInfo struct {
	GoVersion  string `json:"go_version"`
	NumCPU     int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	// Commit is the checkout's git HEAD when it is a git repository;
	// SourceDigest identifies the measured sources either way.
	Commit       string `json:"commit"`
	SourceDigest string `json:"source_digest"`
	Started      string `json:"started"`
}

func hygiene(o options) envInfo {
	info := envInfo{
		GoVersion:  runtime.Version(),
		NumCPU:     runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Commit:     "unknown",
		Started:    time.Now().UTC().Format(time.RFC3339),
	}
	if out, err := exec.Command("git", "-C", o.root, "rev-parse", "HEAD").Output(); err == nil {
		info.Commit = strings.TrimSpace(string(out))
	}
	info.SourceDigest = sourceDigest(o.root)
	return info
}

// sourceDigest hashes the checkout's Go sources and module files in
// path order, skipping the benchmark's own build directory.
func sourceDigest(root string) string {
	h := sha256.New()
	_ = filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil
		}
		if d.IsDir() {
			if strings.HasPrefix(d.Name(), ".") && path != root {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		rel, _ := filepath.Rel(root, path)
		fmt.Fprintf(h, "%s %d\n", rel, len(data))
		h.Write(data)
		return nil
	})
	return hex.EncodeToString(h.Sum(nil))
}
