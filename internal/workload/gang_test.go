package workload

import (
	"strings"
	"testing"
)

// The optional gpus=N trace field: parse, bounds, and malformed
// inputs, each error naming the offending line.
func TestParseTraceGangField(t *testing.T) {
	parse := func(body string, maxGPUs int) ([]TraceJob, error) {
		jobs, _, err := ParseTraceEvents(strings.NewReader(body), maxGPUs)
		return jobs, err
	}

	jobs, err := parse("g 0 AlexNet 64 naive 1 2 gpus=4\nsingle 5 AlexNet 64 - 1 1\n", 8)
	if err != nil {
		t.Fatal(err)
	}
	if jobs[0].GPUs != 4 {
		t.Errorf("gpus=4 parsed as %d", jobs[0].GPUs)
	}
	if jobs[1].GPUs != 0 {
		t.Errorf("job without gpus field parsed as %d", jobs[1].GPUs)
	}

	malformed := []struct {
		name string
		body string
		max  int
		want string // substring the error must carry
	}{
		{"wider than cluster", "ok 0 AlexNet 64 naive 1 1\ng 1 AlexNet 64 naive 1 1 gpus=9\n", 8,
			"line 2: gang needs 9 devices, cluster has 8"},
		{"zero gang", "g 0 AlexNet 64 naive 1 1 gpus=0\n", 0, "line 1: bad gang size"},
		{"negative gang", "g 0 AlexNet 64 naive 1 1 gpus=-2\n", 0, "line 1: bad gang size"},
		{"non-numeric gang", "g 0 AlexNet 64 naive 1 1 gpus=two\n", 0, "line 1: bad gang size"},
		{"bare eighth field", "g 0 AlexNet 64 naive 1 1 4\n", 0, "line 1: want gpus=N"},
		{"misspelled key", "g 0 AlexNet 64 naive 1 1 gpu=4\n", 0, "line 1: want gpus=N"},
		{"ninth field", "g 0 AlexNet 64 naive 1 1 gpus=4 extra\n", 0, "line 1: want 7 fields"},
	}
	for _, c := range malformed {
		_, err := parse(c.body, c.max)
		if err == nil {
			t.Errorf("%s: accepted", c.name)
			continue
		}
		if !strings.Contains(err.Error(), c.want) {
			t.Errorf("%s: error %q does not contain %q", c.name, err, c.want)
		}
	}

	// No ceiling: any positive gang parses.
	if _, err := parse("g 0 AlexNet 64 naive 1 1 gpus=4096\n", 0); err != nil {
		t.Errorf("unlimited parse rejected wide gang: %v", err)
	}
}

// The bundled gang trace is a well-formed constant: 1000 jobs, gangs
// within the 256-device cluster, a healthy single/gang mix, and the
// same bytes on every call.
func TestGangTraceWellFormed(t *testing.T) {
	jobs := GangTrace()
	if len(jobs) != 1000 {
		t.Fatalf("gang trace has %d jobs, want 1000", len(jobs))
	}
	singles, gangs, wide := 0, 0, 0
	for i, j := range jobs {
		if j.GPUs > GangClusterDevices {
			t.Fatalf("job %d gang %d exceeds the %d-device cluster", i, j.GPUs, GangClusterDevices)
		}
		switch {
		case j.GPUs <= 1:
			singles++
		case j.GPUs > 8:
			wide++
		default:
			gangs++
		}
		if j.Iterations < 1 {
			t.Fatalf("job %d has %d iterations", i, j.Iterations)
		}
		if j.ArrivalMS < 0 {
			t.Fatalf("job %d arrives at %d", i, j.ArrivalMS)
		}
	}
	if singles == 0 || gangs == 0 || wide == 0 {
		t.Errorf("trace mix singles=%d gangs=%d wide=%d, want all three populated", singles, gangs, wide)
	}
	if a, b := FormatTrace(GangTrace()), FormatTrace(GangTrace()); a != b {
		t.Fatal("two generations of the gang trace differ")
	}
}
