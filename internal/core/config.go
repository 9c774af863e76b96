// Package core is the SuperNeurons runtime: it executes the tensor
// program of one training iteration on the simulated GPU. core owns
// only the orchestration — the step loop that submits kernels and
// drives the iteration — and calls the concrete internal/memmgr
// subsystems (residency, offload, replay, workspace tuner) for every
// memory-management decision (tensor placement, movement, allocation,
// deallocation, recomputation, workspace policy; §3 of the paper).
//
// Config.Manager selects the policy: the empty name interprets the
// technique flags literally (how the ablation studies toggle
// individual mechanisms), while named managers ("superneurons",
// "vdnn", "naive", the framework models) replace them with a donor
// configuration. Every run executes the same subsystems, so every
// capacity and speed comparison in the evaluation, including the
// competing frameworks' models (internal/policy), isolates exactly
// the policy difference.
package core

import (
	"repro/internal/hw"
	"repro/internal/memmgr"
)

// ExternalPool describes one external memory space of the Unified
// Tensor Pool (Fig. 7 of the paper).
type ExternalPool = memmgr.ExternalPool

// PeerGPUPool returns a peer GPU's DRAM reachable over the same PCIe
// switch (~10 GB/s).
func PeerGPUPool(bytes int64) ExternalPool { return memmgr.PeerGPUPool(bytes) }

// RemotePool returns remote CPU/GPU DRAM over GPUDirect RDMA (~6 GB/s).
func RemotePool(bytes int64) ExternalPool { return memmgr.RemotePool(bytes) }

// Config selects the device, the memory manager and the
// memory/performance techniques for a run.
type Config = memmgr.Config

// SuperNeurons returns the full configuration of the paper's system on
// the given device.
func SuperNeurons(d hw.DeviceSpec) Config { return memmgr.SuperNeuronsConfig(d) }

// Baseline returns the naive network-wide allocation strategy: every
// memory request gets an independent tensor and nothing is recycled
// (peak = Σ l_i^f + Σ l_i^b).
func Baseline(d hw.DeviceSpec) Config { return memmgr.BaselineConfig(d) }
