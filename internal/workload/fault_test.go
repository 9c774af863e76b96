package workload

import (
	"reflect"
	"strings"
	"testing"
)

// TestParseTraceEventsFaults covers the fault-event syntax end to end:
// accepted spellings, the millisecond/second suffixes, and every
// malformed shape — each error must carry the line number and the
// offending token.
func TestParseTraceEventsFaults(t *testing.T) {
	const trace = `# jobs then faults
a 0 AlexNet 128 naive 1 2
fault fail dev=4 at=1500
fault recover dev=4 at=2s
b 100 AlexNet 128 naive 1 2
fault fail dev=0 at=2500ms
`
	jobs, faults, err := ParseTraceEvents(strings.NewReader(trace), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 || jobs[0].ID != "a" || jobs[1].ID != "b" {
		t.Fatalf("jobs = %+v", jobs)
	}
	want := []TraceFault{
		{AtMS: 1500, Device: 4},
		{AtMS: 2000, Device: 4, Recover: true},
		{AtMS: 2500, Device: 0},
	}
	if !reflect.DeepEqual(faults, want) {
		t.Fatalf("faults = %+v, want %+v", faults, want)
	}

	bad := map[string]struct {
		line string
		want string // error must contain this, plus the line number
	}{
		"too few fields":  {"fault fail dev=1", "want \"fault fail|recover dev=N at=T\""},
		"too many fields": {"fault fail dev=1 at=5 extra", "got 5 fields"},
		"bad kind":        {"fault pause dev=1 at=5", `bad fault kind "pause"`},
		"missing dev=":    {"fault fail gpu=1 at=5", `want dev=N, got "gpu=1"`},
		"bad device":      {"fault fail dev=x at=5", `bad fault device "dev=x"`},
		"negative device": {"fault fail dev=-1 at=5", `bad fault device "dev=-1"`},
		"missing at=":     {"fault fail dev=1 t=5", `want at=T, got "t=5"`},
		"bad time":        {"fault fail dev=1 at=soon", `bad fault time "at=soon"`},
		"negative time":   {"fault fail dev=1 at=-5", `bad fault time "at=-5"`},
		"overflow time":   {"fault fail dev=1 at=9223372036854775807s", `bad fault time`},
	}
	for name, tc := range bad {
		in := "a 0 AlexNet 128 naive 1 2\n\n" + tc.line + "\n"
		_, _, err := ParseTraceEvents(strings.NewReader(in), 0)
		if err == nil {
			t.Errorf("%s: malformed fault line accepted", name)
			continue
		}
		if !strings.Contains(err.Error(), "line 3") {
			t.Errorf("%s: error %q does not name line 3", name, err)
		}
		if !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: error %q does not contain %q", name, err, tc.want)
		}
	}
}

// TestParseTraceRejectsFaultLines: callers that cannot deliver faults
// (ParseTrace — the serving layer's request log) must
// refuse a faulted trace loudly, never silently drop its failures.
func TestParseTraceRejectsFaultLines(t *testing.T) {
	const trace = "a 0 AlexNet 128 naive 1 2\nfault fail dev=0 at=100\n"
	_, err := ParseTrace(strings.NewReader(trace))
	if err == nil || !strings.Contains(err.Error(), "line 2") ||
		!strings.Contains(err.Error(), "fault events are not supported here") {
		t.Errorf("ParseTrace accepted a faulted trace: %v", err)
	}
}

// TestFormatTraceEventsRoundTrip: rendering jobs+faults and reparsing
// yields the same values, the canonical bytes are stable, and a
// fault-free trace keeps its historical FormatTrace bytes.
func TestFormatTraceEventsRoundTrip(t *testing.T) {
	jobs, faults := FaultTrace()
	text := FormatTraceEvents(jobs, faults)
	j2, f2, err := ParseTraceEvents(strings.NewReader(text), FaultClusterDevices)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(jobs, j2) {
		t.Errorf("jobs did not round-trip:\n%+v\n%+v", jobs, j2)
	}
	if !reflect.DeepEqual(faults, f2) {
		t.Errorf("faults did not round-trip:\n%+v\n%+v", faults, f2)
	}
	if again := FormatTraceEvents(j2, f2); again != text {
		t.Errorf("canonical form not stable:\n--- first\n%s\n--- second\n%s", text, again)
	}
	if got, want := FormatTraceEvents(jobs, nil), FormatTrace(jobs); got != want {
		t.Errorf("fault-free FormatTraceEvents diverges from FormatTrace")
	}
}

func TestParseMS(t *testing.T) {
	cases := []struct {
		in   string
		want int64
		ok   bool
	}{
		{"0", 0, true},
		{"1500", 1500, true},
		{"1500ms", 1500, true},
		{"2s", 2000, true},
		{"0s", 0, true},
		{"", 0, false},
		{"ms", 0, false},
		{"s", 0, false},
		{"-1", 0, false},
		{"-1s", 0, false},
		{"1.5s", 0, false},
		{"9223372036854775807", 9223372036854775807, true},
		{"9223372036854775807ms", 9223372036854775807, true},
		{"9223372036854775807s", 0, false}, // would overflow ×1000
		{"9223372036854776s", 0, false},
	}
	for _, tc := range cases {
		got, err := parseMS(tc.in)
		if tc.ok != (err == nil) || (tc.ok && got != tc.want) {
			t.Errorf("parseMS(%q) = %d, %v; want %d, ok=%v", tc.in, got, err, tc.want, tc.ok)
		}
	}
}

// TestFaultTraceWellFormed: the bundled failure scenario parses under
// its own cluster ceiling and scripts a permanent failure plus a
// fail/recover cycle.
func TestFaultTraceWellFormed(t *testing.T) {
	jobs, faults := FaultTrace()
	if len(jobs) == 0 || len(faults) == 0 {
		t.Fatal("fault trace empty")
	}
	text := FormatTraceEvents(jobs, faults)
	if _, _, err := ParseTraceEvents(strings.NewReader(text), FaultClusterDevices); err != nil {
		t.Fatal(err)
	}
	gangs := 0
	for _, j := range jobs {
		if j.GPUs > FaultClusterDevices {
			t.Errorf("job %s needs %d devices, cluster has %d", j.ID, j.GPUs, FaultClusterDevices)
		}
		if j.GPUs > 1 {
			gangs++
		}
	}
	if gangs == 0 {
		t.Error("fault trace has no gang to shrink")
	}
	down := map[int]bool{}
	for _, f := range faults {
		if f.Device < 0 || f.Device >= FaultClusterDevices {
			t.Errorf("fault targets device %d of %d", f.Device, FaultClusterDevices)
		}
		down[f.Device] = !f.Recover
	}
	permanent := 0
	for _, d := range down {
		if d {
			permanent++
		}
	}
	if permanent == 0 {
		t.Error("fault trace has no permanent failure")
	}
	if len(down) < 2 {
		t.Error("fault trace touches fewer than two devices")
	}
}

// FuzzParseTrace asserts the trace parser (fault-event syntax
// included) never panics, and that anything it accepts re-formats and
// re-parses to the same values — the trace half of the fuzz satellite.
func FuzzParseTrace(f *testing.F) {
	jobs, faults := FaultTrace()
	f.Add(FormatTraceEvents(jobs, faults))
	f.Add(FormatTrace(DefaultTrace()))
	f.Add("fault fail dev=0 at=100\nfault recover dev=0 at=2s\n")
	f.Add("# comment\na 0 AlexNet 16x2,32 naive 1 4 gpus=2\nfault fail dev=1 at=5ms\n")
	f.Add("fault fail dev=1\nfault fail dev=1 at=-3\n")
	f.Fuzz(func(t *testing.T, text string) {
		jobs, faults, err := ParseTraceEvents(strings.NewReader(text), 0)
		if err != nil {
			return
		}
		// Accepted traces must survive a format/reparse cycle exactly:
		// the canonical rendering is itself a valid trace for the same
		// jobs and faults, and is a fixpoint of formatting. Gang sizes 0
		// and 1 both mean a single device and the renderer omits the
		// field for both, so normalize before comparing.
		for i := range jobs {
			if jobs[i].GPUs == 1 {
				jobs[i].GPUs = 0
			}
		}
		canon := FormatTraceEvents(jobs, faults)
		j2, f2, err := ParseTraceEvents(strings.NewReader(canon), 0)
		if err != nil {
			t.Fatalf("canonical form rejected: %v\n%s", err, canon)
		}
		if !reflect.DeepEqual(jobs, j2) || !reflect.DeepEqual(faults, f2) {
			t.Fatalf("format/reparse changed the trace:\n%+v %+v\n%+v %+v", jobs, faults, j2, f2)
		}
		if again := FormatTraceEvents(j2, f2); again != canon {
			t.Fatalf("canonical form not a fixpoint:\n--- first\n%s\n--- second\n%s", canon, again)
		}
	})
}
