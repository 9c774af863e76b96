// Package examples_test pins the output of every example program.
package examples_test

import (
	"crypto/sha256"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// unpinned is the one example whose output is not a function of the
// code alone: the service listens on an ephemeral port, reports
// wall-clock request latencies, and its concurrent clients reach the
// admission queue in a different order on each run, so the drained
// schedule's makespan and utilization vary too.
const unpinned = "serve"

// Every deterministic example's stdout matches its recorded digest
// (testdata/outputs.sha256). Refresh a digest only for a change meant
// to alter that example's output: `go run ./examples/NAME | sha256sum`.
func TestExampleOutputs(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "outputs.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			want[f[0]] = f[1]
		}
	}
	entries, err := os.ReadDir(".")
	if err != nil {
		t.Fatal(err)
	}
	var names, pkgs []string
	for _, e := range entries {
		if !e.IsDir() || e.Name() == "testdata" || e.Name() == unpinned {
			continue
		}
		if _, ok := want[e.Name()]; !ok {
			t.Errorf("example %s has no digest in testdata/outputs.sha256", e.Name())
			continue
		}
		names = append(names, e.Name())
		pkgs = append(pkgs, "./"+e.Name())
	}
	if len(names) != len(want) {
		t.Errorf("testdata/outputs.sha256 pins %d examples, found %d", len(want), len(names))
	}

	bin := t.TempDir()
	build := exec.Command("go", append([]string{"build", "-o", bin + string(filepath.Separator)}, pkgs...)...)
	if out, err := build.CombinedOutput(); err != nil {
		t.Fatalf("building the examples: %v\n%s", err, out)
	}
	for _, name := range names {
		out, err := exec.Command(filepath.Join(bin, name)).Output()
		if err != nil {
			t.Errorf("example %s: %v", name, err)
			continue
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out)); got != want[name] {
			t.Errorf("example %s: output sha256 %s, golden %s", name, got, want[name])
		}
	}
}
