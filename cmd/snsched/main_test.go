package main

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/sched"
	"repro/internal/workload"
)

// The acceptance criterion for the replay: two consecutive runs of
// the bundled trace produce byte-identical JCT/utilization tables.
func TestReplayDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	if err := run(options{devices: 2, device: "k40c", policyArg: "all"}, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(options{devices: 2, device: "k40c", policyArg: "all"}, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two replays differ:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{"policy fifo", "policy priority", "policy packing",
		"scheduler policy comparison", "rejected", "per-device utilization"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
}

// Every scenario's `-policy all` output matches its recorded digest
// (testdata/scenarios.sha256). Two runs of one binary cannot catch a
// change that is deterministic but different; a golden can. Refresh a
// digest only for a change meant to alter schedules.
func TestScenarioGoldens(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "scenarios.sha256"))
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(string(data), "\n") {
		if f := strings.Fields(line); len(f) == 2 && !strings.HasPrefix(line, "#") {
			want[f[0]] = f[1]
		}
	}
	for _, sc := range scenarios {
		var out bytes.Buffer
		if err := run(options{scenario: sc.name, device: "k40c", policyArg: "all"}, &out); err != nil {
			t.Fatalf("%s: %v", sc.name, err)
		}
		if got := fmt.Sprintf("%x", sha256.Sum256(out.Bytes())); got != want[sc.name] {
			t.Errorf("scenario %s: output sha256 %s, golden %q", sc.name, got, want[sc.name])
		}
	}
}

// A trace file round-trips through -trace exactly like the bundled
// default.
func TestTraceFileMatchesBundled(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "default.trace")
	if err := os.WriteFile(path, []byte(workload.FormatTrace(workload.DefaultTrace())), 0o644); err != nil {
		t.Fatal(err)
	}
	var fromFile, bundled bytes.Buffer
	if err := run(options{tracePath: path, devices: 2, device: "k40c", policyArg: "packing"}, &fromFile); err != nil {
		t.Fatal(err)
	}
	if err := run(options{devices: 2, device: "k40c", policyArg: "packing"}, &bundled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromFile.Bytes(), bundled.Bytes()) {
		t.Error("replaying the formatted bundled trace from a file differs from the built-in default")
	}
}

// Malformed trace files fail with the file name and the offending
// line number, not a bare error (main exits non-zero via log.Fatal).
func TestMalformedTraceNamesOffendingLine(t *testing.T) {
	header := "# id arrival_ms network batch manager priority iterations\n"
	ok := "good 0 AlexNet 16 naive 1 1\n"
	cases := []struct {
		name     string
		trace    string
		wantLine string
	}{
		{"missing fields", header + ok + "bad 100 AlexNet 16 naive 1\n", "line 3"},
		{"extra fields", header + ok + "bad 100 AlexNet 16 naive 1 1 1\n", "line 3"},
		{"bad arrival", header + "bad x AlexNet 16 naive 1 1\n", "line 2"},
		{"negative arrival", header + "bad -5 AlexNet 16 naive 1 1\n", "line 2"},
		{"bad batch", header + ok + ok2("bad", "100", "AlexNet", "zero", "naive", "1", "1"), "line 3"},
		{"zero batch", header + ok2("bad", "100", "AlexNet", "0", "naive", "1", "1"), "line 2"},
		{"bad schedule repeat", header + ok2("bad", "100", "AlexNet", "16x0", "naive", "1", "1"), "line 2"},
		{"bad priority", header + ok2("bad", "100", "AlexNet", "16", "naive", "high", "1"), "line 2"},
		{"bad iterations", header + ok2("bad", "100", "AlexNet", "16", "naive", "1", "none"), "line 2"},
		{"zero iterations", header + ok2("bad", "100", "AlexNet", "16", "naive", "1", "0"), "line 2"},
		{"duplicate id", header + ok + "\n# comment\n" + ok, "line 5"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "bad.trace")
			if err := os.WriteFile(path, []byte(c.trace), 0o644); err != nil {
				t.Fatal(err)
			}
			err := run(options{tracePath: path, devices: 2, device: "k40c", policyArg: "packing"}, &bytes.Buffer{})
			if err == nil {
				t.Fatal("malformed trace accepted")
			}
			if !strings.Contains(err.Error(), c.wantLine) {
				t.Errorf("error %q does not name the offending %s", err, c.wantLine)
			}
			if !strings.Contains(err.Error(), path) {
				t.Errorf("error %q does not name the trace file", err)
			}
		})
	}
}

// ok2 builds one trace line from its seven fields.
func ok2(f ...string) string { return strings.Join(f, " ") + "\n" }

// Each rejection names every value the flag accepts.
func TestRunRejectsBadFlags(t *testing.T) {
	for _, c := range []struct {
		o    options
		want []string
	}{
		{options{devices: 2, device: "nope", policyArg: "all"}, []string{"k40c", "titanxp"}},
		{options{devices: 2, device: "k40c", policyArg: "nope"}, append(sched.PolicyNames(), "all")},
		// -policy all replays in parallel, so its logs would interleave.
		{options{devices: 2, device: "k40c", policyArg: "all", logLevel: "debug"}, sched.PolicyNames()},
	} {
		err := run(c.o, &bytes.Buffer{})
		if err == nil {
			t.Fatalf("%+v accepted", c.o)
		}
		for _, v := range c.want {
			if !strings.Contains(err.Error(), v) {
				t.Errorf("error %q does not name accepted value %q", err, v)
			}
		}
	}
}

// With a single -policy, -log-level runs the replay and logs to
// stderr.
func TestLogLevelSinglePolicyLogs(t *testing.T) {
	r, wr, err := os.Pipe()
	if err != nil {
		t.Fatal(err)
	}
	stderr := os.Stderr
	os.Stderr = wr
	logged := make(chan []byte)
	go func() {
		b, _ := io.ReadAll(r)
		logged <- b
	}()
	var out bytes.Buffer
	runErr := run(options{devices: 2, device: "k40c", policyArg: "packing", logLevel: "debug"}, &out)
	os.Stderr = stderr
	wr.Close()
	log := <-logged
	r.Close()
	if runErr != nil {
		t.Fatalf("-policy packing -log-level debug: %v", runErr)
	}
	if !strings.Contains(out.String(), "policy packing") {
		t.Errorf("no packing schedule in the output:\n%s", out.String())
	}
	if bytes.Count(log, []byte("\n")) == 0 {
		t.Error("-policy packing -log-level debug logged nothing")
	}
}

// The bundled dynamic trace replays deterministically and renders the
// per-iteration batch schedules in the job table.
func TestDynamicReplayDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	opts := options{scenario: "dynamic", devices: 2, device: "k40c", policyArg: "all"}
	if err := run(opts, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(opts, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two dynamic replays differ:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
	for _, want := range []string{"128,256,384,512", "128,512,128", "16x2,32x2"} {
		if !strings.Contains(a.String(), want) {
			t.Errorf("output missing schedule %q", want)
		}
	}
}

// The dynamic trace round-trips through the trace-file schedule
// syntax exactly like the bundled default.
func TestDynamicTraceFileMatchesBundled(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "dynamic.trace")
	if err := os.WriteFile(path, []byte(workload.FormatTrace(workload.DefaultDynamicTrace())), 0o644); err != nil {
		t.Fatal(err)
	}
	var fromFile, bundled bytes.Buffer
	if err := run(options{scenario: "dynamic", tracePath: path, devices: 2, device: "k40c", policyArg: "packing"}, &fromFile); err != nil {
		t.Fatal(err)
	}
	if err := run(options{scenario: "dynamic", devices: 2, device: "k40c", policyArg: "packing"}, &bundled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromFile.Bytes(), bundled.Bytes()) {
		t.Error("replaying the formatted dynamic trace from a file differs from the built-in")
	}
}

// The bundled gang trace replays deterministically on the 256-device
// multi-node cluster — the CLI half of the gang determinism gate —
// and renders gang placements in the job table.
func TestGangReplayDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	opts := options{scenario: "gang", device: "k40c", policyArg: "topo"}
	if err := run(opts, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(opts, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatal("two gang replays differ")
	}
	out := a.String()
	if !strings.Contains(out, "policy topo") {
		t.Error("output missing the topo policy table")
	}
	if !strings.Contains(out, "+") {
		t.Error("job table renders no multi-device gang placement")
	}
}

// A trace whose gang exceeds the cluster fails at parse time with the
// offending line, before any simulation runs.
func TestGangWiderThanClusterFailsAtParse(t *testing.T) {
	path := filepath.Join(t.TempDir(), "wide.trace")
	trace := "ok 0 AlexNet 16 naive 1 1\nwide 10 AlexNet 16 naive 1 1 gpus=3\n"
	if err := os.WriteFile(path, []byte(trace), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(options{tracePath: path, devices: 2, device: "k40c", policyArg: "packing"}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("gang wider than the cluster accepted")
	}
	if !strings.Contains(err.Error(), "line 2") || !strings.Contains(err.Error(), "gang needs 3 devices") {
		t.Errorf("error %q does not name the line and the gang width", err)
	}
}

// The faults scenario is the headline failure demo: two replays are
// byte-identical (the CLI half of the fault determinism gate), the
// fault-recovery and downtime tables render, and no job is lost.
func TestFaultScenarioReplayDeterministic(t *testing.T) {
	var a, b bytes.Buffer
	opts := options{scenario: "faults", device: "k40c", policyArg: "all"}
	if err := run(opts, &a); err != nil {
		t.Fatal(err)
	}
	if err := run(opts, &b); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a.Bytes(), b.Bytes()) {
		t.Fatalf("two fault replays differ:\n--- first\n%s\n--- second\n%s", a.String(), b.String())
	}
	out := a.String()
	for _, want := range []string{"3 fault events", "fault recovery", "restores", "shrinks",
		"lost iters", "downtime", "gang-resnet"} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q", want)
		}
	}
	if strings.Contains(out, "rejected\n") {
		t.Error("fault scenario rejected a job")
	}
}

// -scenario selects the preset cluster; unknown names fail loudly and
// name the choices.
func TestScenarioSelection(t *testing.T) {
	err := run(options{scenario: "nope", device: "k40c", policyArg: "all"}, &bytes.Buffer{})
	if err == nil || !strings.Contains(err.Error(), "unknown scenario") ||
		!strings.Contains(err.Error(), "faults") {
		t.Errorf("unknown scenario error %v does not list the presets", err)
	}
	var out bytes.Buffer
	if err := run(options{scenario: "cotenant", device: "k40c", policyArg: "packing"}, &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "scenario cotenant") {
		t.Error("cotenant scenario header missing")
	}
	// Every preset replays cleanly end to end under one policy.
	for _, sc := range scenarios {
		if sc.name == "gang" {
			continue // exercised by TestGangReplayDeterministic (256 devices)
		}
		if err := run(options{scenario: sc.name, device: "k40c", policyArg: "topo"}, &bytes.Buffer{}); err != nil {
			t.Errorf("scenario %s: %v", sc.name, err)
		}
	}
	listScenarios(&out)
	for _, sc := range scenarios {
		if !strings.Contains(out.String(), sc.name) {
			t.Errorf("scenario list missing %s", sc.name)
		}
	}
}

// A custom trace file may script fault events; the faults fire exactly
// as a scenario's bundled plan would, and a malformed fault line fails
// at parse time naming the file, the line and the token.
func TestTraceFileFaultEvents(t *testing.T) {
	jobs, faults := workload.FaultTrace()
	path := filepath.Join(t.TempDir(), "faults.trace")
	if err := os.WriteFile(path, []byte(workload.FormatTraceEvents(jobs, faults)), 0o644); err != nil {
		t.Fatal(err)
	}
	var fromFile, bundled bytes.Buffer
	if err := run(options{scenario: "faults", tracePath: path, device: "k40c", policyArg: "topo"}, &fromFile); err != nil {
		t.Fatal(err)
	}
	if err := run(options{scenario: "faults", device: "k40c", policyArg: "topo"}, &bundled); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(fromFile.Bytes(), bundled.Bytes()) {
		t.Error("replaying the formatted fault trace from a file differs from the bundled scenario")
	}

	bad := filepath.Join(t.TempDir(), "bad.trace")
	if err := os.WriteFile(bad, []byte("a 0 AlexNet 16 naive 1 1\nfault explode dev=0 at=5\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	err := run(options{scenario: "static", tracePath: bad, device: "k40c", policyArg: "packing"}, &bytes.Buffer{})
	if err == nil {
		t.Fatal("malformed fault line accepted")
	}
	for _, want := range []string{bad, "line 2", `"explode"`} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}
