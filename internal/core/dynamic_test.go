package core_test

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/nnet"
	"repro/internal/utp"
	"repro/internal/workload"
)

// ablationConfig is the frozen-static-plan baseline of the dynamic
// ablation: liveness only, no offloading — the plan a one-shot
// planner would freeze at iteration 0's small shape — on a pool
// shrunk so the ramp's later shapes cannot fit without widening.
func ablationConfig() core.Config {
	return core.Config{
		Device:           hw.TeslaK40c,
		HostLink:         hw.PCIePinned,
		UseMemPool:       true,
		Liveness:         true,
		DynamicWorkspace: true,
		PoolBytes:        2600 * hw.MiB,
		BatchSchedule:    workload.DynamicSchedules["ramp50"],
	}
}

func resnet50(batch int) *nnet.Net { return nnet.ResNet(50, batch) }

// The acceptance ablation: on the bundled ramp50 dynamic trace, the
// adaptive planner must strictly reduce OOM failures (or stall time)
// versus the frozen static plan, training strictly more images.
func TestAdaptiveBeatsFrozenStaticPlan(t *testing.T) {
	static, err := core.RunDynamic(resnet50, ablationConfig())
	if err != nil {
		t.Fatal(err)
	}
	cfg := ablationConfig()
	cfg.AdaptivePlan = true
	adaptive, err := core.RunDynamic(resnet50, cfg)
	if err != nil {
		t.Fatal(err)
	}

	// The frozen plan fits the ramp's first shape and loses the bigger
	// ones to OOM; it never revises itself.
	if static.OOMFailures == 0 {
		t.Fatalf("static plan lost no iterations; the ablation pool is not tight enough (peaks: %+v)", static.Iters)
	}
	if static.Replans != 0 {
		t.Errorf("static plan recorded %d replans, want 0", static.Replans)
	}

	// Adaptive must strictly improve the failure count and train more.
	if adaptive.OOMFailures >= static.OOMFailures {
		t.Errorf("adaptive OOM failures %d not strictly below static %d",
			adaptive.OOMFailures, static.OOMFailures)
	}
	if adaptive.Images <= static.Images {
		t.Errorf("adaptive trained %d images, static %d; want strictly more", adaptive.Images, static.Images)
	}
	if adaptive.Replans == 0 {
		t.Error("adaptive run revised the plan 0 times; it cannot have adapted")
	}

	// The revisions must be visible in the per-iteration plans: the
	// ramp's later iterations run with a wider offload set than the
	// frozen baseline's.
	last := adaptive.Iters[len(adaptive.Iters)-1]
	if last.Offload == utp.OffloadNone {
		t.Errorf("adaptive run ended with offload still disabled: %+v", last)
	}
	for _, it := range static.Iters {
		if it.Offload != utp.OffloadNone || it.Replanned {
			t.Errorf("static iteration %d deviated from the frozen plan: %+v", it.Index, it)
		}
	}
}

// Replays must stay byte-identical: determinism is load-bearing for
// admission control.
func TestDynamicReplayByteIdentical(t *testing.T) {
	for _, adaptivePlan := range []bool{false, true} {
		cfg := ablationConfig()
		cfg.AdaptivePlan = adaptivePlan
		a, err := core.RunDynamic(resnet50, cfg)
		if err != nil {
			t.Fatal(err)
		}
		b, err := core.RunDynamic(resnet50, cfg)
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Errorf("adaptive=%v: two replays of the same dynamic trace differ:\n%+v\n%+v", adaptivePlan, a, b)
		}
	}
}

// An OOM'd iteration is lost work, not a dead job: the run continues,
// state is reclaimed, and later iterations that fit still train.
func TestDynamicOOMRecovery(t *testing.T) {
	cfg := ablationConfig()
	cfg.BatchSchedule = []int{16, 48, 16}
	r, err := core.RunDynamic(resnet50, cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(r.Iters) != 3 {
		t.Fatalf("ran %d iterations, want 3", len(r.Iters))
	}
	if r.Iters[0].OOM || !r.Iters[1].OOM || r.Iters[2].OOM {
		t.Errorf("OOM pattern %v/%v/%v, want false/true/false",
			r.Iters[0].OOM, r.Iters[1].OOM, r.Iters[2].OOM)
	}
	if r.OOMFailures != 1 {
		t.Errorf("OOMFailures = %d, want 1", r.OOMFailures)
	}
	if r.Images != 32 {
		t.Errorf("trained %d images, want 32 (the two fitting iterations)", r.Images)
	}
}

// A run under a full-capacity pool behaves like repeated static runs:
// every scheduled shape trains, per-iteration batches follow the
// schedule, and cycling extends it when Iterations asks for more.
func TestDynamicScheduleCycles(t *testing.T) {
	cfg := core.Config{
		Device: hw.TeslaK40c, HostLink: hw.PCIePinned,
		UseMemPool: true, Liveness: true,
		BatchSchedule: []int{8, 16},
		Iterations:    5,
	}
	r, err := core.RunDynamic(func(b int) *nnet.Net { return nnet.AlexNet(b) }, cfg)
	if err != nil {
		t.Fatal(err)
	}
	want := []int{8, 16, 8, 16, 8}
	if len(r.Iters) != len(want) {
		t.Fatalf("ran %d iterations, want %d", len(r.Iters), len(want))
	}
	for i, it := range r.Iters {
		if it.Batch != want[i] {
			t.Errorf("iteration %d ran batch %d, want %d", i, it.Batch, want[i])
		}
		if it.OOM {
			t.Errorf("iteration %d OOM'd on a full-capacity device", i)
		}
	}
	if r.OOMFailures != 0 || r.Images != 8+16+8+16+8 {
		t.Errorf("failures=%d images=%d, want 0 and 56", r.OOMFailures, r.Images)
	}
}

func TestRunDynamicValidation(t *testing.T) {
	cfg := core.Config{Device: hw.TeslaK40c}
	if _, err := core.RunDynamic(resnet50, cfg); err == nil ||
		!strings.Contains(err.Error(), "schedule") {
		t.Errorf("empty schedule not rejected: %v", err)
	}
	if _, err := core.ManagerConfig("does-not-exist", hw.TeslaK40c); err == nil ||
		!strings.Contains(err.Error(), "unknown memory manager") {
		t.Errorf("unknown manager not rejected: %v", err)
	}
}

// Every named manager runs the adaptive planner's escalated plans with
// the full mechanism set: on the ablation's tight pool the planner
// turns on offloading and then cost-aware recomputation, and a
// manager must rebuild whatever that plan drops. An iteration may
// still OOM (counted, not fatal); any other error is a wiring bug.
func TestAdaptivePlanRunsUnderEveryManager(t *testing.T) {
	for _, name := range core.Names() {
		t.Run(name, func(t *testing.T) {
			cfg, err := core.ManagerConfig(name, hw.TeslaK40c)
			if err != nil {
				t.Fatal(err)
			}
			cfg.PoolBytes = 2600 * hw.MiB
			cfg.BatchSchedule = workload.DynamicSchedules["ramp50"]
			cfg.AdaptivePlan = true
			if _, err := core.RunDynamic(resnet50, cfg); err != nil && !errors.Is(err, core.ErrOutOfMemory) {
				t.Errorf("adaptive run failed: %v", err)
			}
		})
	}
}
