package core

import (
	"fmt"
	"testing"

	"repro/internal/hw"
	"repro/internal/nnet"
	"repro/internal/recompute"
	"repro/internal/sim"
	"repro/internal/utp"
	"repro/internal/workload"
)

// testPool is the pool capacity the unit tests observe against.
const testPool = 100

// calmProfile is a stall-free iteration peaking at 30% of testPool.
func calmProfile(batch int) IterationProfile {
	return IterationProfile{Batch: batch, IterTime: 100 * sim.Millisecond, PoolPeak: 30}
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
	s := calmProfile(32)
	s.OOM = true
	if !a.observe(s, 32, testPool) {
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
	s := calmProfile(32)
	s.PoolPeak = 95 // headroom 5%
	if !a.observe(s, 32, testPool) || a.level != 1 {
		t.Errorf("near-miss headroom did not widen the plan (level %d)", a.level)
	}
}

func TestAdaptiveEscalatesOnStallSpike(t *testing.T) {
	a := newAdaptive(Config{})
	s := calmProfile(32)
	s.IterTime, s.StallTime = 100*sim.Millisecond, 40*sim.Millisecond
	if !a.observe(s, 32, testPool) || a.level != 1 {
		t.Errorf("stall spike did not widen the plan (level %d)", a.level)
	}
}

// The planner anticipates a declared ramp: when the next iteration's
// batch scales the measured peak past the pool, it widens before the
// bigger shape arrives, not after losing it to OOM.
func TestAdaptiveAnticipatesIncomingShape(t *testing.T) {
	a := newAdaptive(Config{})
	s := calmProfile(16)
	s.PoolPeak = 70 // headroom fine now, 2x shape will not fit
	if !a.observe(s, 32, testPool) || a.level != 1 {
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
		if a.observe(calmProfile(32), 32, testPool) {
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
	s := calmProfile(32)
	s.OOM = true
	if !a.observe(s, 32, testPool) {
		t.Fatal("no escalation")
	}
	for i := 0; i < adaptCalmRun; i++ {
		if a.observe(calmProfile(32), 32, testPool) {
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
	s := calmProfile(32)
	s.OOM = true
	if a.observe(s, 32, testPool) {
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
	s := calmProfile(32)
	s.OOM = true
	if !a.observe(s, 32, testPool) {
		t.Fatal("no escalation")
	}
	if got := a.config(); got.Offload == utp.OffloadSwapAll {
		t.Error("post-revision Config still the base; the ladder should own the knobs now")
	}
}

// dynamicOutcome is what a planner part is judged on: iterations lost
// to OOM, images trained and end-to-end time.
type dynamicOutcome struct {
	OOMFailures int
	Images      int64
	TotalTime   string
}

func outcomeOf(r *DynamicResult) dynamicOutcome {
	return dynamicOutcome{r.OOMFailures, r.Images, fmt.Sprintf("%.3f s", r.TotalTime.Seconds())}
}

// Every part of observe earns its place: each case is a cell of the
// planner sweep (the nine managers on AlexNet, ResNet-50 and VGG16,
// bundled and generated schedules, 1.5 to 11 GiB pools on K40c) where
// masking that one part out loses iterations or images, or takes
// longer at equal counts.
func TestAdaptivePartsChangeOutcomes(t *testing.T) {
	down := []int{256, 192, 128, 64, 32, 32, 32, 32}
	buckets := workload.DynamicSchedules["buckets"]
	cases := []struct {
		name            string
		part            adaptPart
		manager, net    string
		schedule        []int
		poolMiB         int64
		partOn, partOff dynamicOutcome
	}{
		{"OOM escalation", partOOM, "mxnet", "ResNet50", down, 1536,
			dynamicOutcome{3, 192, "6.308 s"}, dynamicOutcome{5, 96, "3.436 s"}},
		{"headroom escalation", partHeadroom, "tensorflow", "AlexNet", down, 2600,
			dynamicOutcome{0, 768, "2.708 s"}, dynamicOutcome{0, 768, "2.754 s"}},
		{"next-peak escalation", partNextPeak, "caffe", "AlexNet", workload.Ramp(64, 512, 8), 5120,
			dynamicOutcome{3, 960, "9.469 s"}, dynamicOutcome{3, 960, "9.895 s"}},
		{"stall escalation", partStall, "tensorflow-swap", "AlexNet", buckets, 2600,
			dynamicOutcome{0, 704, "3.224 s"}, dynamicOutcome{0, 704, "3.337 s"}},
		{"calm stall", partCalmStall, "vdnn", "ResNet50", buckets, 11264,
			dynamicOutcome{0, 704, "21.252 s"}, dynamicOutcome{1, 512, "16.119 s"}},
		{"cooldown", partCooldown, "tensorflow", "VGG16", workload.Buckets(3, 32, 160, 64), 5120,
			dynamicOutcome{3, 288, "40.804 s"}, dynamicOutcome{4, 224, "41.366 s"}},
		{"calm run (hysteresis)", partCalmRun, "vdnn", "VGG16", buckets, 5120,
			dynamicOutcome{4, 128, "27.164 s"}, dynamicOutcome{4, 128, "27.726 s"}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			cfg, err := ManagerConfig(c.manager, hw.TeslaK40c)
			if err != nil {
				t.Fatal(err)
			}
			cfg.PoolBytes = c.poolMiB * hw.MiB
			cfg.BatchSchedule = c.schedule
			cfg.AdaptivePlan = true
			on, err := runDynamic(nnet.ByName(c.net), cfg, 0)
			if err != nil {
				t.Fatal(err)
			}
			off, err := runDynamic(nnet.ByName(c.net), cfg, c.part)
			if err != nil {
				t.Fatal(err)
			}
			if got := outcomeOf(on); got != c.partOn {
				t.Errorf("%s/%s/%d MiB with the part: %+v, want %+v", c.manager, c.net, c.poolMiB, got, c.partOn)
			}
			if got := outcomeOf(off); got != c.partOff {
				t.Errorf("%s/%s/%d MiB without the part: %+v, want %+v", c.manager, c.net, c.poolMiB, got, c.partOff)
			}
			lost := off.OOMFailures > on.OOMFailures || off.Images < on.Images ||
				off.OOMFailures == on.OOMFailures && off.Images == on.Images && off.TotalTime > on.TotalTime
			if !lost {
				t.Errorf("masking the %s out did not make the run worse: %+v -> %+v", c.name, outcomeOf(on), outcomeOf(off))
			}
		})
	}
}
