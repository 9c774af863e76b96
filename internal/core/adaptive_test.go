package core

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/recompute"
	"repro/internal/sim"
	"repro/internal/utp"
)

func calmSignals(batch int) signals {
	return signals{
		Batch: batch, NextBatch: batch,
		IterTime: 100 * sim.Millisecond, StallTime: 0,
		PoolPeak: 30, PoolBytes: 100,
	}
}

func TestAdaptiveStartsAtBaseLevel(t *testing.T) {
	cases := []struct {
		cfg  Config
		want int
	}{
		{Config{}, 0},
		{Config{Offload: utp.OffloadConv}, 1},
		{Config{Offload: utp.OffloadConvAndKept}, 2},
		{Config{Offload: utp.OffloadSwapAll}, 2},
		{Config{Offload: utp.OffloadConvAndKept, Recompute: recompute.CostAware}, 3},
	}
	for _, c := range cases {
		if got := newAdaptive(c.cfg).level; got != c.want {
			t.Errorf("start level for offload=%v recompute=%v: got %d, want %d",
				c.cfg.Offload, c.cfg.Recompute, got, c.want)
		}
	}
}

func TestAdaptiveEscalatesOnOOM(t *testing.T) {
	a := newAdaptive(Config{Device: hw.TeslaK40c, Liveness: true})
	s := calmSignals(32)
	s.OOM = true
	if !a.observe(s) {
		t.Fatal("OOM did not change the plan")
	}
	cfg := a.config()
	if cfg.Offload != utp.OffloadConv || !cfg.Prefetch {
		t.Errorf("after OOM: offload=%v prefetch=%v, want conv offload with prefetch", cfg.Offload, cfg.Prefetch)
	}
	if a.replans != 1 {
		t.Errorf("replans = %d, want 1", a.replans)
	}
}

func TestAdaptiveEscalatesOnNearMiss(t *testing.T) {
	a := newAdaptive(Config{})
	s := calmSignals(32)
	s.PoolPeak, s.PoolBytes = 95, 100 // headroom 5%
	if !a.observe(s) || a.level != 1 {
		t.Errorf("near-miss headroom did not widen the plan (level %d)", a.level)
	}
}

func TestAdaptiveEscalatesOnStallSpike(t *testing.T) {
	a := newAdaptive(Config{})
	s := calmSignals(32)
	s.IterTime, s.StallTime = 100*sim.Millisecond, 40*sim.Millisecond
	if !a.observe(s) || a.level != 1 {
		t.Errorf("stall spike did not widen the plan (level %d)", a.level)
	}
}

func TestAdaptiveEscalatesOnFailedPrefetches(t *testing.T) {
	a := newAdaptive(Config{Offload: utp.OffloadConv})
	s := calmSignals(32)
	s.FailedPrefetches = 3
	if !a.observe(s) || a.level != 2 {
		t.Errorf("failed prefetches did not widen the plan (level %d)", a.level)
	}
}

// The planner anticipates a declared ramp: when the next iteration's
// batch scales the measured peak past the pool, it widens before the
// bigger shape arrives, not after losing it to OOM.
func TestAdaptiveAnticipatesIncomingShape(t *testing.T) {
	a := newAdaptive(Config{})
	s := calmSignals(16)
	s.NextBatch = 32
	s.PoolPeak, s.PoolBytes = 70, 100 // headroom fine now, 2x shape will not fit
	if !a.observe(s) || a.level != 1 {
		t.Errorf("incoming-shape prediction did not widen the plan (level %d)", a.level)
	}
}

// De-escalation needs sustained calm plus the post-change cooldown —
// the plan must not oscillate around a boundary shape.
func TestAdaptiveDeescalationHysteresis(t *testing.T) {
	a := newAdaptive(Config{Offload: utp.OffloadConvAndKept, Recompute: recompute.CostAware})
	if a.level != 3 {
		t.Fatalf("start level %d, want 3", a.level)
	}
	var changeAt []int
	levels := []int{a.level}
	for i := 0; i < 6; i++ {
		if a.observe(calmSignals(32)) {
			changeAt = append(changeAt, i)
		}
		levels = append(levels, a.level)
	}
	if len(changeAt) == 0 {
		t.Fatal("sustained calm never narrowed the plan")
	}
	// Each narrowing needs adaptCalmRun calm iterations behind it, so
	// changes are spaced at least that far apart.
	if changeAt[0] < adaptCalmRun-1 {
		t.Errorf("first narrowing after %d calm iterations, want at least %d", changeAt[0]+1, adaptCalmRun)
	}
	for i := 1; i < len(changeAt); i++ {
		if changeAt[i]-changeAt[i-1] < adaptCalmRun {
			t.Errorf("narrowings at iterations %v closer than the %d-iteration hysteresis", changeAt, adaptCalmRun)
		}
	}
	for i := 1; i < len(levels); i++ {
		if levels[i] > levels[i-1] {
			t.Errorf("levels %v not monotone under sustained calm", levels)
		}
	}
	// The base already recomputes, so levels 2 and 3 share knobs: the
	// first narrowing must skip to the genuinely narrower conv-only
	// set, never burning a replan on identical knobs.
	if got := levels[changeAt[0]+1]; got != 1 {
		t.Errorf("first narrowing landed on level %d, want 1 (levels 2 and 3 share knobs here)", got)
	}
	if cfg := a.config(); cfg.Recompute != recompute.CostAware {
		t.Errorf("narrowing must not drop the base recompute strategy, got %v", cfg.Recompute)
	}
}

// After an escalation, calm iterations inside the cooldown window must
// not immediately narrow the plan back.
func TestAdaptiveCooldownAfterEscalation(t *testing.T) {
	a := newAdaptive(Config{})
	s := calmSignals(32)
	s.OOM = true
	if !a.observe(s) {
		t.Fatal("no escalation")
	}
	for i := 0; i < adaptCalmRun; i++ {
		if a.observe(calmSignals(32)) {
			t.Fatalf("plan narrowed on calm iteration %d, inside the cooldown window", i)
		}
	}
	if a.level != 1 {
		t.Errorf("level = %d during cooldown, want 1", a.level)
	}
}

// At the top of the ladder an escalation signal changes nothing — and
// is not counted as a replan.
func TestAdaptiveSaturatesAtMaxLevel(t *testing.T) {
	a := newAdaptive(Config{Offload: utp.OffloadConvAndKept, Recompute: recompute.CostAware})
	s := calmSignals(32)
	s.OOM = true
	if a.observe(s) {
		t.Error("plan changed at the top of the ladder")
	}
	if a.replans != 0 {
		t.Errorf("replans = %d at saturation, want 0", a.replans)
	}
}

// Until the first revision the planner hands back the base
// configuration verbatim: enabling AdaptivePlan must not silently
// rewrite a manager's own plan (vdnn's swap-all offload set is not a
// ladder rung) before any signal has been observed.
func TestAdaptivePreservesBasePlanUntilFirstRevision(t *testing.T) {
	base := Config{Offload: utp.OffloadSwapAll, Prefetch: true}
	a := newAdaptive(base)
	if got := a.config(); got.Offload != utp.OffloadSwapAll || !got.Prefetch {
		t.Errorf("initial Config rewrote the base plan: offload=%v prefetch=%v", got.Offload, got.Prefetch)
	}
	s := calmSignals(32)
	s.OOM = true
	if !a.observe(s) {
		t.Fatal("no escalation")
	}
	if got := a.config(); got.Offload == utp.OffloadSwapAll {
		t.Error("post-revision Config still the base; the ladder should own the knobs now")
	}
}
