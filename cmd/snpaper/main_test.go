package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/policy"
)

// call runs snpaper with args and returns its exit status, stdout and
// stderr.
func call(args ...string) (int, string, string) {
	var out, errOut bytes.Buffer
	code := snpaper(args, &out, &errOut)
	return code, out.String(), errOut.String()
}

func TestRunWritesTraceAndCSV(t *testing.T) {
	dir := t.TempDir()
	tracePath, csvPath := filepath.Join(dir, "t.json"), filepath.Join(dir, "p.csv")
	code, out, stderr := call("run", "-net", "AlexNet", "-batch", "64", "-profile", "-diagram",
		"-trace", tracePath, "-csv", csvPath)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	for _, want := range []string{
		"execution route of AlexNet", "framework: SuperNeurons on Tesla K40c", "hottest steps",
		"chrome trace written to " + tracePath, "per-step profile", "profile written to " + csvPath,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("run output lacks %q:\n%s", want, out)
		}
	}
	trace, err := os.ReadFile(tracePath)
	if err != nil {
		t.Fatal(err)
	}
	if !json.Valid(trace) {
		t.Error("chrome trace is not valid JSON")
	}
	csv, err := os.ReadFile(csvPath)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(string(csv), "step,label,resident MiB") {
		t.Errorf("csv header: %.60q", csv)
	}
}

func TestRunErrors(t *testing.T) {
	missing := filepath.Join(t.TempDir(), "no", "such", "dir")
	// A framework naming an unknown manager fails with the manager
	// error, not a zero Config.
	all := policy.All
	t.Cleanup(func() { policy.All = all })
	policy.All = append(all[:len(all):len(all)], policy.Framework{Name: "Typo", Managers: []string{"does-not-exist"}})
	for _, c := range []struct {
		args []string
		code int
		want string
	}{
		{[]string{"run", "-device", "v100"}, 1, `unknown device "v100" (have k40c, titanxp)`},
		{[]string{"run", "-framework", "Keras"}, 1, `unknown framework "Keras"`},
		{[]string{"run", "-framework", "Typo"}, 1, `unknown memory manager "does-not-exist"`},
		{[]string{"run", "-net", "LeNet"}, 1, "LeNet"},
		{[]string{"run", "-net", "ResNet50", "-batch", "224", "-framework", "Caffe"}, 1, "out of memory"},
		{[]string{"run", "-trace", filepath.Join(missing, "t.json")}, 1, "no such file"},
		{[]string{"run", "-csv", filepath.Join(missing, "p.csv")}, 1, "no such file"},
		{[]string{"run", "-batch", "many"}, 2, "invalid value"},
	} {
		code, _, stderr := call(c.args...)
		if code != c.code || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: exit %d, stderr %q; want exit %d naming %q", c.args, code, stderr, c.code, c.want)
		}
	}
}

func TestTables(t *testing.T) {
	code, out, stderr := call("tables")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	keys := []string{"table1", "table2", "table3", "table4", "table5",
		"fig2", "fig8", "fig10", "fig11", "fig12", "fig13", "fig14"}
	for _, k := range keys {
		if !strings.Contains(out, "["+k+" regenerated in ") {
			t.Errorf("full run lacks %s", k)
		}
	}
	_, sub, _ := call("tables", "-only", "Table1, fig8")
	if got := strings.Count(sub, " regenerated in "); got != 2 {
		t.Errorf("-only table1,fig8 regenerated %d items, want 2:\n%s", got, sub)
	}
	if !strings.Contains(sub, "Table 1: recomputation strategies") {
		t.Errorf("-only output lacks Table 1:\n%s", sub)
	}
}

// The parallel per-framework searches must not leak goroutine
// scheduling into the report: consecutive sweeps are byte-identical.
func TestWiderSweepDeterministic(t *testing.T) {
	args := []string{"sweep", "-mode", "wider", "-net", "AlexNet", "-limit", "8"}
	_, a, _ := call(args...)
	code, b, stderr := call(args...)
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if a != b {
		t.Fatalf("two identical sweeps differ:\n--- first\n%s\n--- second\n%s", a, b)
	}
	if !strings.Contains(a, "largest trainable batch for AlexNet") {
		t.Errorf("unexpected sweep output:\n%s", a)
	}
	// Every framework fits batch 8 on the K40c, so the capacity
	// search must saturate the limit for each of them. Rows start
	// after the title, header and separator lines.
	for _, line := range strings.Split(strings.TrimSpace(a), "\n")[3:] {
		if !strings.HasSuffix(strings.TrimSpace(line), " 8") {
			t.Errorf("framework row did not reach the search limit: %q", line)
		}
	}
}

func TestDeeperSweep(t *testing.T) {
	code, out, stderr := call("sweep", "-mode", "deeper", "-batch", "16", "-max-n3", "2")
	if code != 0 {
		t.Fatalf("exit %d: %s", code, stderr)
	}
	if !strings.Contains(out, "deepest trainable ResNet at batch 16 on Tesla K40c") {
		t.Errorf("unexpected sweep output:\n%s", out)
	}
	// Every framework trains n3=2 at batch 16, so each row reaches
	// the bound: depth 140 with 472 basic layers.
	rows := strings.Split(strings.TrimSpace(out), "\n")[3:]
	if len(rows) != 5 {
		t.Fatalf("%d framework rows, want 5:\n%s", len(rows), out)
	}
	for _, line := range rows {
		if f := strings.Fields(line); len(f) != 4 || f[1] != "140" || f[2] != "2" || f[3] != "472" {
			t.Errorf("framework row did not reach the search bound: %q", line)
		}
	}
}

func TestSweepUnknownMode(t *testing.T) {
	for _, c := range []struct {
		args []string
		want string
	}{
		{[]string{"sweep", "-mode", "sideways"}, `unknown mode "sideways"`},
		{[]string{"sweep", "-mode", "wider", "-net", "LeNet", "-limit", "8"}, `unknown network "LeNet"`},
	} {
		code, out, stderr := call(c.args...)
		if code != 1 || out != "" || !strings.Contains(stderr, c.want) {
			t.Errorf("%v: exit %d, stdout %q, stderr %q; want exit 1 naming %q", c.args, code, out, stderr, c.want)
		}
	}
}

func TestUsage(t *testing.T) {
	for _, c := range []struct {
		args []string
		code int
	}{
		{nil, 2},
		{[]string{"plot"}, 2},
		{[]string{"tables", "-bogus"}, 2},
		{[]string{"sweep", "-h"}, 0},
	} {
		code, _, stderr := call(c.args...)
		if code != c.code {
			t.Errorf("%v: exit %d, want %d", c.args, code, c.code)
		}
		if c.code == 2 && !strings.Contains(stderr, "usage") && !strings.Contains(stderr, "Usage") {
			t.Errorf("%v: no usage on stderr: %q", c.args, stderr)
		}
	}
}
