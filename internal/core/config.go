package core

import (
	"repro/internal/hw"
	"repro/internal/recompute"
	"repro/internal/utp"
)

// ExternalPool describes one external memory space of the Unified
// Tensor Pool (Fig. 7 of the paper).
type ExternalPool struct {
	Name  string
	Bytes int64
	Link  hw.LinkSpec
}

// PeerGPUPool returns a peer GPU's DRAM reachable over the same PCIe
// switch (~10 GB/s).
func PeerGPUPool(bytes int64) ExternalPool {
	return ExternalPool{Name: "peer-gpu", Bytes: bytes, Link: hw.PCIeP2P}
}

// RemotePool returns remote CPU/GPU DRAM over GPUDirect RDMA (~6 GB/s).
func RemotePool(bytes int64) ExternalPool {
	return ExternalPool{Name: "remote-rdma", Bytes: bytes, Link: hw.GPUDirectRDMA}
}

// Config selects the device and the memory/performance techniques for
// a run. A run executes exactly its Config; ManagerConfig returns the
// Config of each named memory manager.
type Config struct {
	// Device is the simulated GPU; HostLink the CPU↔GPU interconnect
	// (pinned for SuperNeurons, pageable for TensorFlow-style swapping).
	Device   hw.DeviceSpec
	HostLink hw.LinkSpec

	// PoolBytes bounds the GPU functional memory (defaults to the
	// device's usable bytes). The Fig. 12 experiments shrink it.
	PoolBytes int64
	// HostBytes bounds pinned host memory (defaults to 256 GiB).
	HostBytes int64

	// ExternalPools extends the Unified Tensor Pool beyond local CPU
	// DRAM (the paper's Fig. 7 hierarchy: peer-GPU DRAM under the same
	// PCIe switch, remote CPU/GPU DRAM over GPUDirect RDMA). Offloads
	// fill the pools in order; empty means the single local CPU pool
	// described by HostBytes/HostLink.
	ExternalPools []ExternalPool

	// UseMemPool selects the preallocated heap pool; false uses the
	// cudaMalloc/cudaFree cost model (Table 2's comparison).
	UseMemPool bool

	// Liveness enables freeing tensors at their last use (§3.2).
	Liveness bool
	// Offload selects the Unified Tensor Pool mode (§3.3).
	Offload utp.Mode
	// Prefetch enables the one-checkpoint-ahead prefetching; without
	// it offloaded tensors are fetched on demand at first use.
	Prefetch bool
	// TensorCache enables the LRU Tensor Cache (§3.3.2): offloads
	// become lazy (eviction-driven) instead of eager, and the least
	// recently used unlocked tensors are evicted under pressure.
	TensorCache bool
	// Recompute selects the recomputation strategy (§3.4).
	Recompute recompute.Strategy
	// DynamicWorkspace enables the per-step convolution algorithm
	// selection under the remaining free bytes (§3.5); off forces the
	// zero-workspace implicit GEMM.
	DynamicWorkspace bool
	// WorkspaceLimit caps the per-layer workspace (0 = only the free
	// bytes limit). The competing frameworks ship static caps — e.g.
	// Caffe requests at most 8 MiB per convolution — which is the
	// "naive method on allocating the convolution workspace" §2.2
	// criticizes.
	WorkspaceLimit int64

	// InPlaceAct shares activation/dropout buffers with their
	// producers (the Torch-style in-place optimization §2.2 mentions).
	// Under recomputation a replayed in-place member re-runs over its
	// producer's buffer rather than allocating its own.
	InPlaceAct bool

	// Iterations is how many training iterations to simulate (the
	// profile is recorded on the last one). Defaults to 1.
	Iterations int

	// BatchSchedule declares a per-iteration batch schedule for
	// dynamic workloads: entry i is the batch size of iteration i
	// (cycling when Iterations exceeds its length). Only core's
	// dynamic run loop honors it — the program is rebuilt for the
	// incoming shape at each iteration boundary. Empty means every
	// iteration reuses the network's static batch.
	BatchSchedule []int
	// AdaptivePlan enables the online adaptive planner for dynamic
	// runs: instead of replaying the iteration-0 plan verbatim, the
	// offload/prefetch/recompute knobs are revised at iteration
	// boundaries from the previous iteration's profile (OOM, peak
	// headroom, stall fraction, and the peak predicted for the next
	// declared batch).
	AdaptivePlan bool

	// CollectTrace records every kernel and transfer as a timeline
	// span (Result.Trace) for Chrome-trace export via internal/trace.
	CollectTrace bool

	// SGDUpdate appends the momentum-SGD weight update to each
	// iteration (read parameters, gradients and momentum, write
	// parameters and momentum — a bandwidth-bound pass over the
	// persistent state). The paper's step-wise profiles cover only
	// forward+backward, so this defaults off.
	SGDUpdate bool
}

// SuperNeurons returns the full configuration of the paper's system on
// the given device.
func SuperNeurons(d hw.DeviceSpec) Config {
	return Config{
		Device:           d,
		HostLink:         hw.PCIePinned,
		UseMemPool:       true,
		Liveness:         true,
		Offload:          utp.OffloadConvAndKept,
		Prefetch:         true,
		TensorCache:      true,
		Recompute:        recompute.CostAware,
		DynamicWorkspace: true,
	}
}

// Baseline returns the naive network-wide allocation strategy: every
// memory request gets an independent tensor and nothing is recycled
// (peak = Σ l_i^f + Σ l_i^b).
func Baseline(d hw.DeviceSpec) Config {
	return Config{
		Device:     d,
		HostLink:   hw.PCIePinned,
		UseMemPool: true,
	}
}

// withDefaults fills the capacity and iteration defaults.
func (c Config) withDefaults() Config {
	cc := c
	if cc.PoolBytes == 0 {
		cc.PoolBytes = cc.Device.UsableBytes
	}
	if cc.HostBytes == 0 {
		cc.HostBytes = 256 * hw.GiB
	}
	if cc.Iterations == 0 {
		cc.Iterations = 1
	}
	if cc.HostLink.BytesPerSec == 0 {
		cc.HostLink = hw.PCIePinned
	}
	return cc
}
