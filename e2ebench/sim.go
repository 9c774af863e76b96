package main

import (
	"bufio"
	"crypto/sha256"
	"embed"
	"encoding/hex"
	"fmt"
	"strings"

	"repro/internal/experiments"
)

// experiment is one table or figure sntables regenerates.
type experiment struct {
	name string
	run  func(st *simState) string
}

// simState carries Table 5's search results to Fig 13, which sntables
// also computes once for both.
type simState struct {
	table5 map[string]map[string]int
}

func (st *simState) t5() map[string]map[string]int {
	if st.table5 == nil {
		st.table5 = experiments.Table5Data()
	}
	return st.table5
}

// experimentList is sntables' order.
var experimentList = []experiment{
	{"table1", func(*simState) string { return experiments.Table1().String() }},
	{"table2", func(*simState) string { return experiments.Table2().String() }},
	{"table3", func(*simState) string { return experiments.Table3().String() }},
	{"table4", func(*simState) string { return experiments.Table4().String() }},
	{"table5", func(st *simState) string { return experiments.Table5(st.t5()).String() }},
	{"fig2", func(*simState) string { return experiments.Fig2().String() }},
	{"fig8", func(*simState) string {
		a, b := experiments.Fig8()
		return a.String() + "\n" + b.String()
	}},
	{"fig10", func(*simState) string { return experiments.Fig10(experiments.Fig10Runs()) }},
	{"fig11", func(*simState) string { return experiments.Fig11().String() }},
	{"fig12", func(*simState) string { return experiments.Fig12() }},
	{"fig13", func(st *simState) string { return experiments.Fig13(st.t5()).String() }},
	{"fig14", func(*simState) string { return experiments.Fig14() }},
}

func allExperiments() []string {
	names := make([]string, len(experimentList))
	for i, ex := range experimentList {
		names[i] = ex.name
	}
	return names
}

// simPass regenerates the named experiments in sntables' order and
// returns each one's text.
func simPass(names []string, tr *tracer) map[string]string {
	want := make(map[string]bool, len(names))
	for _, n := range names {
		want[n] = true
	}
	var st simState
	texts := make(map[string]string, len(names))
	for _, ex := range experimentList {
		if !want[ex.name] {
			continue
		}
		sp := tr.begin("experiments." + ex.name)
		texts[ex.name] = ex.run(&st)
		tr.end(sp)
	}
	return texts
}

// textDigests hashes each experiment's text.
func textDigests(texts map[string]string) map[string]string {
	digests := make(map[string]string, len(texts))
	for name, text := range texts {
		sum := sha256.Sum256([]byte(text))
		digests[name] = hex.EncodeToString(sum[:])
	}
	return digests
}

// runSimEval is the paper-reproduction workload: closed-loop passes
// over the evaluation, in process. The input is the paper's fixed
// evaluation, so the seed does not apply.
func runSimEval(e *env, sc scale) (*report, error) {
	r := newReport(e.o)
	setup, err := coldStarts(e, sc)
	if err != nil {
		return nil, err
	}
	golden, err := readGolden("sim-eval.sha256")
	if err != nil {
		return nil, err
	}
	var texts map[string]string
	run := func(int) error {
		texts = simPass(sc.experiments, nil)
		return nil
	}
	digest := func(int) (map[string]string, error) { return textDigests(texts), nil }
	lat, err := passes(e, sc.minPasses, 1, r, run, digest)
	if err != nil {
		return nil, err
	}
	r.check("sim-eval: experiment text matches testdata/sim-eval.sha256", matchGolden(golden, r.Digests))
	latencyMetrics(r, "pass", lat, e.speed.marks, true)
	secondsMetric(r, "setup_s", setup, e.speed.marks, true)
	return r, nil
}

//go:embed testdata/*.sha256
var goldenFS embed.FS

// readGolden parses a golden digest file: one "name hex-sha256" line
// per output.
func readGolden(file string) (map[string]string, error) {
	f, err := goldenFS.Open("testdata/" + file)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	out := map[string]string{}
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		name, sum, ok := strings.Cut(line, " ")
		if !ok {
			return nil, fmt.Errorf("%s: bad line %q", file, line)
		}
		out[name] = strings.TrimSpace(sum)
	}
	return out, sc.Err()
}

// matchGolden checks every produced digest against its golden value.
func matchGolden(golden, got map[string]string) error {
	var bad []string
	for _, name := range sortedKeys(got) {
		if golden[name] != got[name] {
			bad = append(bad, fmt.Sprintf("%s=%s (golden %q)", name, got[name], golden[name]))
		}
	}
	if len(bad) > 0 {
		return fmt.Errorf("digest mismatch: %s", strings.Join(bad, "; "))
	}
	return nil
}
