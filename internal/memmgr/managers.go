package memmgr

import (
	"fmt"
	"strings"

	"repro/internal/hw"
	"repro/internal/recompute"
	"repro/internal/utp"
)

// Components is one run's wiring of the four subsystems. The
// references are mutual: fetches allocate through residency, reclaims
// harvest through the offload engine, and replays use both.
type Components struct {
	Residency *StdResidency
	Offload   *StdOffload
	Replay    *StdReplayer
	Tuner     *StdTuner
}

// NewComponents wires fresh subsystems over rt. Which mechanisms
// actually engage is decided by rt.Cfg's technique flags, so this one
// wiring serves every manager and every flag-driven ablation.
func NewComponents(rt *Runtime) Components {
	resid := &StdResidency{rt: rt}
	off := &StdOffload{rt: rt, resid: resid}
	resid.off = off
	return Components{
		Residency: resid,
		Offload:   off,
		Replay:    &StdReplayer{rt: rt, resid: resid, off: off},
		Tuner:     &StdTuner{rt: rt},
	}
}

// policyOf returns a normalize func that takes the donor constructor's
// configuration as the complete policy surface — the donor is the
// single source of truth for the technique flags — and carries over
// only the capacity and instrumentation fields of the incoming Config.
// Any technique flag the caller set (including ones added in the
// future) is therefore owned, and overridden, by the manager.
func policyOf(donor func(hw.DeviceSpec) Config) func(Config) Config {
	return func(cfg Config) Config {
		out := donor(cfg.Device)
		out.Manager = cfg.Manager
		out.PoolBytes = cfg.PoolBytes
		out.HostBytes = cfg.HostBytes
		out.ExternalPools = cfg.ExternalPools
		out.Iterations = cfg.Iterations
		out.BatchSchedule = cfg.BatchSchedule
		out.AdaptivePlan = cfg.AdaptivePlan
		out.CollectTrace = cfg.CollectTrace
		out.SGDUpdate = cfg.SGDUpdate
		return out
	}
}

// Donor configurations for the framework policy models (§2.2, §4.2 of
// the paper); SuperNeuronsConfig and BaselineConfig in config.go serve
// the same role for the paper's runtime and the naive baseline.

// VDNNConfig models Rhu et al.'s vDNN (§5): eager pinned offloading
// of every sizable single-consumer tensor with prefetching — but no
// recomputation, no tensor cache, and no dynamic workspace policy
// beyond a fixed cap.
func VDNNConfig(d hw.DeviceSpec) Config {
	return Config{
		Device: d, HostLink: hw.PCIePinned,
		UseMemPool: true, DynamicWorkspace: true,
		WorkspaceLimit: 512 * hw.MiB,
		Liveness:       true,
		Offload:        utp.OffloadSwapAll,
		Prefetch:       true,
	}
}

// CaffeConfig keeps the whole network resident and caps each
// convolution's workspace at its conservative 8 MiB default.
func CaffeConfig(d hw.DeviceSpec) Config {
	return Config{
		Device: d, HostLink: hw.PCIePinned,
		UseMemPool: true, DynamicWorkspace: true,
		WorkspaceLimit: 8 * hw.MiB,
	}
}

// TorchConfig is Caffe's policy plus in-place activations and a
// somewhat larger static workspace cap.
func TorchConfig(d hw.DeviceSpec) Config {
	c := CaffeConfig(d)
	c.WorkspaceLimit = 32 * hw.MiB
	c.InPlaceAct = true
	return c
}

// MXNetConfig runs liveness plus the per-segment speed-centric
// recomputation of Chen et al. with its 1 GiB per-layer workspace
// default — no swapping, so checkpoint outputs accumulate on GPU.
func MXNetConfig(d hw.DeviceSpec) Config {
	return Config{
		Device: d, HostLink: hw.PCIePinned,
		UseMemPool: true, DynamicWorkspace: true,
		WorkspaceLimit: 1 * hw.GiB,
		Liveness:       true,
		Recompute:      recompute.SpeedCentric,
	}
}

// TensorFlowConfig is TensorFlow's plain execution: DAG liveness over
// a pageable host link, no swapping, no recomputation.
func TensorFlowConfig(d hw.DeviceSpec) Config {
	return Config{
		Device: d, HostLink: hw.PCIePageable,
		UseMemPool: true, DynamicWorkspace: true,
		Liveness: true,
	}
}

// TensorFlowSwapConfig is TensorFlow's memory optimizer: when the
// plain execution does not fit, pageable on-demand swap-out/swap-in
// pairs for single-consumer tensors (no pinned staging, no prefetch
// overlap — the ≥50% communication-speed loss §2.2 describes).
func TensorFlowSwapConfig(d hw.DeviceSpec) Config {
	c := TensorFlowConfig(d)
	c.Offload = utp.OffloadSwapAll
	return c
}

// managers maps each manager name to the policy it imposes on a
// Config. "custom" is the identity: it interprets the technique flags
// literally. Every other row is a donor configuration that owns them.
var managers = map[string]func(Config) Config{
	"custom": func(cfg Config) Config { return cfg },
	// The paper's full runtime.
	"superneurons": policyOf(SuperNeuronsConfig),
	// The offload-everything baseline.
	"vdnn": policyOf(VDNNConfig),
	// The naive keep-everything baseline (peak = Σ l_i^f + Σ l_i^b).
	"naive": policyOf(BaselineConfig),
	// The framework comparison models.
	"caffe":           policyOf(CaffeConfig),
	"torch":           policyOf(TorchConfig),
	"mxnet":           policyOf(MXNetConfig),
	"tensorflow":      policyOf(TensorFlowConfig),
	"tensorflow-swap": policyOf(TensorFlowSwapConfig),
}

// Normalize resolves the configuration a run executes: cfg.Manager's
// policy ("" selects "custom"), then the defaults. Named managers own
// the technique flags and override them, while capacity and
// instrumentation fields (device, pool sizes, iterations, tracing)
// pass through. An unknown name is an error listing Names().
func Normalize(cfg Config) (Config, error) {
	name := cfg.Manager
	if name == "" {
		name = "custom"
	}
	policy, ok := managers[name]
	if !ok {
		return Config{}, fmt.Errorf("unknown memory manager %q (have %s)", cfg.Manager, strings.Join(Names(), ", "))
	}
	return policy(cfg).WithDefaults(), nil
}
