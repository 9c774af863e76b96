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
	e := NewEngine("compute")
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
	tl := NewTimeline()
	dma := tl.NewEngine("h2d")
	cmp := tl.NewEngine("compute")
	xfer := dma.Submit(0, 300)
	k := cmp.Submit(0, 100, xfer)
	if k.At() != 400 {
		t.Errorf("kernel gated on transfer completes at %d, want 400", k.At())
	}
}

func TestSubmitRespectsIssueTime(t *testing.T) {
	e := NewEngine("compute")
	ev := e.Submit(500, 100)
	if ev.At() != 600 {
		t.Errorf("task issued at 500 completes at %d, want 600", ev.At())
	}
}

func TestOverlapOfIndependentEngines(t *testing.T) {
	tl := NewTimeline()
	cmp := tl.NewEngine("compute")
	d2h := tl.NewEngine("d2h")
	k := cmp.Submit(0, 1000)
	x := d2h.Submit(0, 800)
	if k.At() != 1000 || x.At() != 800 {
		t.Fatalf("independent engines must overlap: got %d and %d", k.At(), x.At())
	}
	if got := tl.SyncAll(); got != 1000 {
		t.Errorf("SyncAll = %d, want 1000", got)
	}
}

func TestWaitAdvancesHostOnlyForward(t *testing.T) {
	tl := NewTimeline()
	e := tl.NewEngine("compute")
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

func TestWaitAll(t *testing.T) {
	tl := NewTimeline()
	a := tl.NewEngine("a")
	b := tl.NewEngine("b")
	e1 := a.Submit(0, 70)
	e2 := b.Submit(0, 90)
	tl.WaitAll(e1, e2)
	if tl.Now() != 90 {
		t.Errorf("WaitAll gives %d, want 90", tl.Now())
	}
}

func TestUtilization(t *testing.T) {
	tl := NewTimeline()
	e := tl.NewEngine("compute")
	if tl.Utilization(e) != 0 {
		t.Fatal("utilization at time zero must be 0")
	}
	ev := e.Submit(0, 400)
	tl.Wait(ev)
	tl.Advance(600)
	if got := tl.Utilization(e); got != 0.4 {
		t.Errorf("utilization = %v, want 0.4", got)
	}
}

func TestNegativeDurationPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Submit with negative duration must panic")
		}
	}()
	NewEngine("x").Submit(0, -1)
}

func TestNegativeAdvancePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Advance with negative duration must panic")
		}
	}()
	NewTimeline().Advance(-1)
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
		e := NewEngine("p")
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
		return e.BusyTime() == sum && e.Tasks() == len(durs)
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
		tl := NewTimeline()
		engines := []*Engine{tl.NewEngine("a"), tl.NewEngine("b"), tl.NewEngine("c")}
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

// Property: SyncAll equals the max engine free time and the host clock
// never decreases.
func TestSyncAllProperty(t *testing.T) {
	f := func(durA, durB uint16) bool {
		tl := NewTimeline()
		a := tl.NewEngine("a")
		b := tl.NewEngine("b")
		ea := a.Submit(0, Duration(durA))
		eb := b.Submit(0, Duration(durB))
		want := ea.At()
		if eb.At() > want {
			want = eb.At()
		}
		return tl.SyncAll() == want
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
