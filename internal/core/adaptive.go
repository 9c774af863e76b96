package core

// The adaptive planner: the paper's headline is *dynamic* GPU memory
// management, yet a one-shot plan computed before iteration 0 and
// replayed verbatim cannot represent workloads whose shape changes
// between iterations (bucketed sequence lengths, batch ramps — the
// setting where vDNN-style static offload schedules break down).
// The adaptive type closes the loop: it reads each iteration's
// IterationProfile — OOM, peak headroom, stall fraction, and the peak
// predicted for the next declared shape — and revises the
// offload/prefetch/recompute knobs for the next iteration boundary,
// widening the offload set under pressure and narrowing it after a
// sustained run of stall-free iterations.
//
// Every input is a deterministic product of the virtual-time
// simulation, so two replays of the same dynamic trace make identical
// decisions — determinism is load-bearing for admission control.

import (
	"repro/internal/recompute"
	"repro/internal/utp"
)

// The decision thresholds. Escalation is eager (a single bad signal
// widens the plan: an OOM'd iteration is lost work), de-escalation is
// conservative (sustained calm plus hysteresis, so the plan does not
// oscillate around a boundary shape).
const (
	// adaptEscalateHeadroom: below this peak headroom the iteration
	// was an OOM near-miss.
	adaptEscalateHeadroom = 0.10
	// adaptEscalateStall: stalls above this fraction of the iteration
	// mean transfers are not hiding behind compute — eager offloads
	// must start earlier (a wider eager set) to overlap.
	adaptEscalateStall = 0.15
	// adaptNextPeakFrac: predicted next-shape peak above this fraction
	// of the pool escalates before the bigger shape arrives.
	adaptNextPeakFrac = 0.92
	// adaptCalmStall: an iteration that does not escalate is calm
	// when its stalls stay below this fraction.
	adaptCalmStall = 0.02
	// adaptCalmRun: consecutive calm iterations required before the
	// plan narrows; also the post-change cooldown.
	adaptCalmRun = 2
)

// adaptive revises the offload/prefetch/recompute plan online. It owns
// a ladder of plan aggressiveness levels over the base configuration;
// observe moves along the ladder from measured signals and config
// materializes the current level's knobs.
type adaptive struct {
	base Config
	// level is the current aggressiveness (0 = keep everything
	// resident, adaptMaxLevel = widest offload set plus
	// recomputation); replans counts the revisions observe made.
	level int
	// moved is set once observe has changed the plan; until then
	// config returns the base verbatim, so enabling the planner never
	// silently rewrites a manager's own plan (e.g. vdnn's swap-all
	// offload set) before any signal has been observed.
	moved    bool
	calm     int
	cooldown int
	replans  int
	// off masks decision parts out of observe. Only tests set it, to
	// assert what each part changes; the zero value keeps every part.
	off adaptPart
}

// adaptPart names one decision part of observe.
type adaptPart uint8

const (
	partOOM adaptPart = 1 << iota
	partHeadroom
	partNextPeak
	partStall
	partCalmStall
	partCalmRun
	partCooldown
)

func (a *adaptive) on(part adaptPart) bool { return a.off&part == 0 }

// adaptMaxLevel indexes the widest plan on the ladder.
const adaptMaxLevel = 3

// newAdaptive returns a planner starting at the level matching the
// base configuration's offload knobs.
func newAdaptive(base Config) *adaptive {
	a := &adaptive{base: base}
	switch base.Offload {
	case utp.OffloadNone:
		a.level = 0
	case utp.OffloadConv:
		a.level = 1
	default: // conv+kept, swap-all
		a.level = 2
	}
	if a.level == 2 && base.Recompute != recompute.None {
		a.level = 3
	}
	return a
}

// config materializes the current level over the base configuration.
// Until the first plan revision it is the base itself.
func (a *adaptive) config() Config {
	if !a.moved {
		return a.base
	}
	return a.apply(a.level)
}

// apply materializes a ladder level's knobs over the base. Once the
// planner has revised the plan, the ladder owns the offload mode: a
// swap-all base (vdnn, tensorflow-swap) escalates into conv+kept —
// which is not a superset of swap-all's tensor set but strictly
// dominates it on peak memory (swap heuristics keep O(depth)
// join/fan-out tensors resident, §2.2; conv+kept offloads exactly
// those, and level 3's recomputation drops the cheap outputs swap-all
// would have moved), so escalation never trades away capacity.
func (a *adaptive) apply(level int) Config {
	cfg := a.base
	switch level {
	case 0:
		cfg.Offload = utp.OffloadNone
		cfg.Prefetch = false
	case 1:
		cfg.Offload = utp.OffloadConv
		cfg.Prefetch = true
	default:
		cfg.Offload = utp.OffloadConvAndKept
		cfg.Prefetch = true
	}
	if level >= 3 && cfg.Recompute == recompute.None {
		cfg.Recompute = recompute.CostAware
	}
	return cfg
}

// observe feeds one iteration's profile into the planner, with the
// declared batch of the next iteration and the pool capacity, and
// reports whether the plan for the next iteration changed (the caller
// must then rebind with the revised config).
func (a *adaptive) observe(p IterationProfile, nextBatch int, poolBytes int64) bool {
	headroom := 0.0
	if poolBytes > 0 {
		headroom = 1 - float64(p.PoolPeak)/float64(poolBytes)
	}
	stallFrac := 0.0
	if p.IterTime > 0 {
		stallFrac = float64(p.StallTime) / float64(p.IterTime)
	}
	// A growing shape escalates before it arrives when the measured
	// peak, scaled linearly to the next batch, nears the pool.
	// Functional footprints grow with the batch while the persistent
	// state does not, so the scaling slightly overestimates: the right
	// bias for a near-miss detector.
	nextPeakNear := nextBatch > p.Batch &&
		float64(p.PoolPeak)*float64(nextBatch)/float64(p.Batch) > adaptNextPeakFrac*float64(poolBytes)

	escalate := a.on(partOOM) && p.OOM ||
		a.on(partHeadroom) && headroom < adaptEscalateHeadroom ||
		a.on(partStall) && stallFrac > adaptEscalateStall ||
		a.on(partNextPeak) && nextPeakNear

	if escalate {
		a.calm = 0
		a.cooldown = adaptCalmRun
		return a.moveTo(a.wider())
	}

	calmNow := !a.on(partCalmStall) || stallFrac < adaptCalmStall
	if !calmNow {
		a.calm = 0
		if a.cooldown > 0 {
			a.cooldown--
		}
		return false
	}
	a.calm++
	if a.on(partCooldown) && a.cooldown > 0 {
		a.cooldown--
		return false
	}
	if a.on(partCalmRun) && a.calm < adaptCalmRun {
		return false
	}
	a.calm = 0
	a.cooldown = adaptCalmRun
	return a.moveTo(a.narrower())
}

// planKnobs is the comparable slice of Config the ladder owns.
type planKnobs struct {
	offload   utp.Mode
	prefetch  bool
	recompute recompute.Strategy
}

func (a *adaptive) knobs(level int) planKnobs {
	cfg := a.apply(level)
	return planKnobs{offload: cfg.Offload, prefetch: cfg.Prefetch, recompute: cfg.Recompute}
}

// wider returns the next level up whose knobs actually differ (levels
// can coincide, e.g. 2 and 3 when the base already recomputes).
func (a *adaptive) wider() int {
	cur := a.knobs(a.level)
	for l := a.level + 1; l <= adaptMaxLevel; l++ {
		if a.knobs(l) != cur {
			return l
		}
	}
	return a.level
}

// narrower returns the next distinct level down.
func (a *adaptive) narrower() int {
	cur := a.knobs(a.level)
	for l := a.level - 1; l >= 0; l-- {
		if a.knobs(l) != cur {
			return l
		}
	}
	return a.level
}

// moveTo switches levels, counting a replan only on a real change.
func (a *adaptive) moveTo(level int) bool {
	if level == a.level {
		return false
	}
	a.level = level
	a.moved = true
	a.replans++
	return true
}
