package workload

import (
	"fmt"
	"reflect"
	"strings"
	"testing"
)

func TestRamp(t *testing.T) {
	got := Ramp(16, 48, 3)
	want := Schedule{16, 32, 48}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Ramp(16,48,3) = %v, want %v", got, want)
	}
	if r := Ramp(8, 64, 1); !reflect.DeepEqual(r, Schedule{64}) {
		t.Errorf("degenerate ramp = %v, want [64]", r)
	}
}

func TestBuckets(t *testing.T) {
	got := Buckets(2, 64, 128)
	want := Schedule{64, 64, 128, 128}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("Buckets(2,64,128) = %v, want %v", got, want)
	}
}

func TestScheduleAccessors(t *testing.T) {
	s := Schedule{16, 48, 16, 32}
	if s.Max() != 48 {
		t.Errorf("Max = %d, want 48", s.Max())
	}
	if got := s.Distinct(); !reflect.DeepEqual(got, []int{16, 32, 48}) {
		t.Errorf("Distinct = %v, want [16 32 48]", got)
	}
	for i, want := range []int{16, 48, 16, 32, 16, 48} {
		if got := s.At(i); got != want {
			t.Errorf("At(%d) = %d, want %d (cycling)", i, got, want)
		}
	}
}

func TestParseScheduleRoundTrip(t *testing.T) {
	cases := []struct {
		in   string
		want Schedule
		out  string // canonical rendering
	}{
		{"64", Schedule{64}, "64"},
		{"16x2,32,64x3", Schedule{16, 16, 32, 64, 64, 64}, "16x2,32,64x3"},
		{"128,256,384,512", Schedule{128, 256, 384, 512}, "128,256,384,512"},
	}
	for _, c := range cases {
		got, err := ParseSchedule(c.in)
		if err != nil {
			t.Errorf("ParseSchedule(%q): %v", c.in, err)
			continue
		}
		if !reflect.DeepEqual(got, c.want) {
			t.Errorf("ParseSchedule(%q) = %v, want %v", c.in, got, c.want)
		}
		if got.String() != c.out {
			t.Errorf("(%v).String() = %q, want %q", got, got.String(), c.out)
		}
		back, err := ParseSchedule(got.String())
		if err != nil || !reflect.DeepEqual(back, got) {
			t.Errorf("round trip of %q failed: %v %v", c.in, back, err)
		}
	}
	for _, bad := range []string{"", "0", "-4", "16x0", "16x-1", "a", "16,,32", "16xx2",
		"1x2000000000", "1x1000000,2x1000000"} {
		if _, err := ParseSchedule(bad); err == nil {
			t.Errorf("ParseSchedule(%q) accepted", bad)
		}
	}
	// The expansion cap is a ceiling, not a smaller de-facto limit.
	if got, err := ParseSchedule(fmt.Sprintf("1x%d", MaxScheduleLen)); err != nil || len(got) != MaxScheduleLen {
		t.Errorf("schedule at the cap rejected: %d entries, %v", len(got), err)
	}
}

func TestScheduleValidate(t *testing.T) {
	if err := (Schedule{}).Validate(); err == nil {
		t.Error("empty schedule accepted")
	}
	if err := (Schedule{16, 0}).Validate(); err == nil {
		t.Error("zero batch accepted")
	}
	if err := (Schedule{16, 32}).Validate(); err != nil {
		t.Errorf("valid schedule rejected: %v", err)
	}
}

func TestBundledDynamicSchedules(t *testing.T) {
	if len(DynamicSchedules) == 0 {
		t.Fatal("no bundled dynamic schedules")
	}
	for n, s := range DynamicSchedules {
		if err := s.Validate(); err != nil {
			t.Errorf("bundled schedule %q invalid: %v", n, err)
		}
	}
}

// Dynamic trace lines round-trip through the batch-field schedule
// syntax.
func TestTraceScheduleRoundTrip(t *testing.T) {
	jobs := DefaultDynamicTrace()
	parsed, err := ParseTrace(strings.NewReader(FormatTrace(jobs)))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(parsed, jobs) {
		t.Errorf("dynamic trace did not round-trip:\n%+v\n%+v", parsed, jobs)
	}
}
