package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/hw"
	"repro/internal/recompute"
	"repro/internal/utp"
)

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
// the paper); SuperNeurons and Baseline in config.go serve the same
// role for the paper's runtime and the naive baseline.

// vdnnConfig models Rhu et al.'s vDNN (§5): eager pinned offloading
// of every sizable single-consumer tensor with prefetching — but no
// recomputation, no tensor cache, and no dynamic workspace policy
// beyond a fixed cap.
func vdnnConfig(d hw.DeviceSpec) Config {
	return Config{
		Device: d, HostLink: hw.PCIePinned,
		UseMemPool: true, DynamicWorkspace: true,
		WorkspaceLimit: 512 * hw.MiB,
		Liveness:       true,
		Offload:        utp.OffloadSwapAll,
		Prefetch:       true,
	}
}

// caffeConfig keeps the whole network resident and caps each
// convolution's workspace at its conservative 8 MiB default.
func caffeConfig(d hw.DeviceSpec) Config {
	return Config{
		Device: d, HostLink: hw.PCIePinned,
		UseMemPool: true, DynamicWorkspace: true,
		WorkspaceLimit: 8 * hw.MiB,
	}
}

// torchConfig is Caffe's policy plus in-place activations and a
// somewhat larger static workspace cap.
func torchConfig(d hw.DeviceSpec) Config {
	c := caffeConfig(d)
	c.WorkspaceLimit = 32 * hw.MiB
	c.InPlaceAct = true
	return c
}

// mxnetConfig runs liveness plus the per-segment speed-centric
// recomputation of Chen et al. with its 1 GiB per-layer workspace
// default — no swapping, so checkpoint outputs accumulate on GPU.
func mxnetConfig(d hw.DeviceSpec) Config {
	return Config{
		Device: d, HostLink: hw.PCIePinned,
		UseMemPool: true, DynamicWorkspace: true,
		WorkspaceLimit: 1 * hw.GiB,
		Liveness:       true,
		Recompute:      recompute.SpeedCentric,
	}
}

// tensorFlowConfig is TensorFlow's plain execution: DAG liveness over
// a pageable host link, no swapping, no recomputation.
func tensorFlowConfig(d hw.DeviceSpec) Config {
	return Config{
		Device: d, HostLink: hw.PCIePageable,
		UseMemPool: true, DynamicWorkspace: true,
		Liveness: true,
	}
}

// tensorFlowSwapConfig is TensorFlow's memory optimizer: when the
// plain execution does not fit, pageable on-demand swap-out/swap-in
// pairs for single-consumer tensors (no pinned staging, no prefetch
// overlap — the ≥50% communication-speed loss §2.2 describes).
func tensorFlowSwapConfig(d hw.DeviceSpec) Config {
	c := tensorFlowConfig(d)
	c.Offload = utp.OffloadSwapAll
	return c
}

// managers maps each manager name to the policy it imposes on a
// Config. "custom" is the identity: it interprets the technique flags
// literally. Every other row is a donor configuration that owns them.
var managers = map[string]func(Config) Config{
	"custom": func(cfg Config) Config { return cfg },
	// The paper's full runtime.
	"superneurons": policyOf(SuperNeurons),
	// The offload-everything baseline.
	"vdnn": policyOf(vdnnConfig),
	// The naive keep-everything baseline (peak = Σ l_i^f + Σ l_i^b).
	"naive": policyOf(Baseline),
	// The framework comparison models.
	"caffe":           policyOf(caffeConfig),
	"torch":           policyOf(torchConfig),
	"mxnet":           policyOf(mxnetConfig),
	"tensorflow":      policyOf(tensorFlowConfig),
	"tensorflow-swap": policyOf(tensorFlowSwapConfig),
}

// normalize resolves the configuration a run executes: cfg.Manager's
// policy ("" selects "custom"), then the defaults. Named managers own
// the technique flags and override them, while capacity and
// instrumentation fields (device, pool sizes, iterations, tracing)
// pass through. An unknown name is an error listing Names().
func normalize(cfg Config) (Config, error) {
	name := cfg.Manager
	if name == "" {
		name = "custom"
	}
	policy, ok := managers[name]
	if !ok {
		return Config{}, fmt.Errorf("unknown memory manager %q (have %s)", cfg.Manager, strings.Join(Names(), ", "))
	}
	return policy(cfg).withDefaults(), nil
}

// Names returns the manager names Config.Manager accepts, sorted.
func Names() []string {
	out := make([]string, 0, len(managers))
	for n := range managers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
