package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestZeroEventIsComplete(t *testing.T) {
	var e Event
	if !e.DoneBy(0) {
		t.Fatal("zero event should be complete at time 0")
	}
	if e.At() != 0 {
		t.Fatalf("zero event At = %d, want 0", e.At())
	}
}

func TestEngineSerializesTasks(t *testing.T) {
	var e Engine
	e1 := e.Submit(0, 100)
	e2 := e.Submit(0, 50)
	if e1.At() != 100 {
		t.Errorf("first task completes at %d, want 100", e1.At())
	}
	if e2.At() != 150 {
		t.Errorf("second task completes at %d, want 150 (serialized)", e2.At())
	}
}

func TestSubmitRespectsDependencies(t *testing.T) {
	var dma, cmp Engine
	xfer := dma.Submit(0, 300)
	k := cmp.Submit(0, 100, xfer)
	if k.At() != 400 {
		t.Errorf("kernel gated on transfer completes at %d, want 400", k.At())
	}
}

func TestSubmitRespectsIssueTime(t *testing.T) {
	var e Engine
	ev := e.Submit(500, 100)
	if ev.At() != 600 {
		t.Errorf("task issued at 500 completes at %d, want 600", ev.At())
	}
}

func TestOverlapOfIndependentEngines(t *testing.T) {
	var cmp, d2h Engine
	k := cmp.Submit(0, 1000)
	x := d2h.Submit(0, 800)
	if k.At() != 1000 || x.At() != 800 {
		t.Fatalf("independent engines must overlap: got %d and %d", k.At(), x.At())
	}
	var tl Timeline
	tl.Wait(k)
	tl.Wait(x)
	if tl.Now() != 1000 {
		t.Errorf("waiting on both gives %d, want 1000", tl.Now())
	}
}

func TestWaitAdvancesHostOnlyForward(t *testing.T) {
	var tl Timeline
	var e Engine
	ev := e.Submit(0, 100)
	tl.Advance(500)
	tl.Wait(ev) // already complete; must not move time backward
	if tl.Now() != 500 {
		t.Errorf("Wait on past event moved clock to %d, want 500", tl.Now())
	}
	ev2 := e.Submit(tl.Now(), 100)
	tl.Wait(ev2)
	if tl.Now() != 600 {
		t.Errorf("Wait on future event gives %d, want 600", tl.Now())
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Submit with negative duration must panic")
		}
	}()
	var e Engine
	e.Submit(0, -1)
}

func TestNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance with negative duration must panic")
		}
	}()
	var tl Timeline
	tl.Advance(-1)
}

func TestDurationString(t *testing.T) {
	cases := []struct {
		d    Duration
		want string
	}{
		{500, "500ns"},
		{2 * Microsecond, "2.000us"},
		{3 * Millisecond, "3.000ms"},
		{4 * Second, "4.000s"},
	}
	for _, c := range cases {
		if got := c.d.String(); got != c.want {
			t.Errorf("(%d).String() = %q, want %q", int64(c.d), got, c.want)
		}
	}
}

// Property: an engine's completion times are strictly monotone in
// submission order (serial execution), and total busy time equals the
// sum of durations.
func TestEngineMonotoneProperty(t *testing.T) {
	f := func(durs []uint16) bool {
		var e Engine
		var last Time
		var sum Duration
		for _, d := range durs {
			ev := e.Submit(0, Duration(d))
			if ev.At() < last {
				return false
			}
			last = ev.At()
			sum += Duration(d)
		}
		return e.BusyTime() == sum
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: a task never starts before any of its dependencies
// complete, regardless of issue order across engines.
func TestDependencyOrderingProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		engines := make([]Engine, 3)
		var events []Event
		for i := 0; i < int(n)+1; i++ {
			var deps []Event
			for _, ev := range events {
				if rng.Intn(4) == 0 {
					deps = append(deps, ev)
				}
			}
			dur := Duration(rng.Intn(1000))
			ev := engines[rng.Intn(len(engines))].Submit(0, dur, deps...)
			for _, d := range deps {
				if ev.At()-Time(dur) < d.At() {
					return false
				}
			}
			events = append(events, ev)
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}
