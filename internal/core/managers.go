package core

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/hw"
	"repro/internal/recompute"
	"repro/internal/utp"
)

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

// managers maps each manager name to the configuration it runs.
// "custom" is the bare device: every technique off, for the caller to
// switch on flag by flag (how the ablation studies toggle individual
// mechanisms). Every other row is a donor configuration.
var managers = map[string]func(hw.DeviceSpec) Config{
	"custom": func(d hw.DeviceSpec) Config { return Config{Device: d} },
	// The paper's full runtime.
	"superneurons": SuperNeurons,
	// The offload-everything baseline.
	"vdnn": vdnnConfig,
	// The naive keep-everything baseline (peak = Σ l_i^f + Σ l_i^b).
	"naive": Baseline,
	// The framework comparison models.
	"caffe":           caffeConfig,
	"torch":           torchConfig,
	"mxnet":           mxnetConfig,
	"tensorflow":      tensorFlowConfig,
	"tensorflow-swap": tensorFlowSwapConfig,
}

// ManagerConfig returns the named manager's configuration on the
// device ("" selects "custom"). The result is an ordinary Config: a
// field the caller sets on it afterwards takes effect. An unknown name
// is an error listing Names().
func ManagerConfig(name string, d hw.DeviceSpec) (Config, error) {
	if name == "" {
		name = "custom"
	}
	donor, ok := managers[name]
	if !ok {
		return Config{}, fmt.Errorf("unknown memory manager %q (have %s)", name, strings.Join(Names(), ", "))
	}
	return donor(d), nil
}

// Names returns the manager names ManagerConfig accepts, sorted.
func Names() []string {
	out := make([]string, 0, len(managers))
	for n := range managers {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}
