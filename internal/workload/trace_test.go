package workload

import (
	"reflect"
	"strings"
	"testing"
)

// The bundled traces survive parse -> format -> parse unchanged, and
// the formatted text is a fixed point (format(parse(format)) is
// byte-identical) — the property the serving layer's request-log
// replay rests on.
func TestTraceRoundTrips(t *testing.T) {
	for _, c := range []struct {
		name string
		jobs []TraceJob
	}{
		{"static", DefaultTrace()},
		{"dynamic", DefaultDynamicTrace()},
	} {
		t.Run(c.name, func(t *testing.T) {
			text := FormatTrace(c.jobs)
			parsed, err := ParseTrace(strings.NewReader(text))
			if err != nil {
				t.Fatal(err)
			}
			if !reflect.DeepEqual(parsed, c.jobs) {
				t.Errorf("parse(format(jobs)) != jobs:\n%v\nvs\n%v", parsed, c.jobs)
			}
			again := FormatTrace(parsed)
			if again != text {
				t.Errorf("format(parse(text)) differs from text:\n--- first\n%s\n--- second\n%s", text, again)
			}
		})
	}
}

// FormatJob lines after TraceHeader accumulate to exactly FormatTrace.
func TestFormatJobMatchesFormatTrace(t *testing.T) {
	jobs := DefaultDynamicTrace()
	var b strings.Builder
	b.WriteString(TraceHeader)
	for _, j := range jobs {
		b.WriteString(FormatJob(j))
	}
	if b.String() != FormatTrace(jobs) {
		t.Error("incremental FormatJob output differs from FormatTrace")
	}
}

// A one-entry batch schedule collapses to a plain batch on the round
// trip: "16x1" has no distinct dynamic meaning.
func TestSingleEntryScheduleNormalizes(t *testing.T) {
	in := "solo 0 AlexNet 16x1 - 1 2\n"
	parsed, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if parsed[0].Batch != 16 || parsed[0].BatchSchedule != nil {
		t.Errorf("16x1 parsed as %+v, want plain batch 16", parsed[0])
	}
	if got := FormatJob(parsed[0]); got != "solo 0 AlexNet 16 - 1 2\n" {
		t.Errorf("formatted as %q", got)
	}
}

func TestParseTraceRejectsDuplicateIDs(t *testing.T) {
	in := "a 0 AlexNet 16 - 1 1\nb 1 AlexNet 16 - 1 1\na 2 AlexNet 32 - 1 1\n"
	_, err := ParseTrace(strings.NewReader(in))
	if err == nil {
		t.Fatal("duplicate job ids accepted")
	}
	for _, want := range []string{"line 3", "line 1", "duplicate"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q missing %q", err, want)
		}
	}
}

// Long comment lines (up to the 1 MiB scanner buffer) must not kill
// the parse: request logs carry human annotations.
func TestParseTraceLongCommentLine(t *testing.T) {
	in := "# " + strings.Repeat("x", 200*1024) + "\na 0 AlexNet 16 - 1 1\n"
	jobs, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 1 || jobs[0].ID != "a" {
		t.Errorf("jobs = %+v", jobs)
	}
}

// An over-long line fails with the line context rather than silently
// truncating.
func TestParseTraceOverlongLineNamesLine(t *testing.T) {
	in := "a 0 AlexNet 16 - 1 1\n# " + strings.Repeat("x", 2*1024*1024) + "\n"
	_, err := ParseTrace(strings.NewReader(in))
	if err == nil {
		t.Fatal("2 MiB line accepted")
	}
	if !strings.Contains(err.Error(), "after line 1") {
		t.Errorf("error %q lacks line context", err)
	}
}

// The bundled traces themselves are well-formed: unique ids, known
// managers, positive iterations.
func TestBundledTracesWellFormed(t *testing.T) {
	for _, jobs := range [][]TraceJob{DefaultTrace(), DefaultDynamicTrace()} {
		ids := map[string]bool{}
		for _, j := range jobs {
			if ids[j.ID] {
				t.Errorf("duplicate id %q in bundled trace", j.ID)
			}
			ids[j.ID] = true
			if j.Iterations <= 0 || j.Batch <= 0 {
				t.Errorf("job %q has non-positive batch/iterations: %+v", j.ID, j)
			}
			if len(j.BatchSchedule) > 0 && j.Batch != Schedule(j.BatchSchedule).Max() {
				t.Errorf("job %q: Batch %d != schedule max %d", j.ID, j.Batch, Schedule(j.BatchSchedule).Max())
			}
		}
	}
}
