// Package hw describes the simulated hardware: GPU device profiles,
// interconnect links, and the latency constants of the native CUDA
// allocator. The SuperNeurons evaluation ran on an NVIDIA K40c (capacity
// experiments, 12 GB) and a TITAN XP (throughput experiments); both are
// provided as calibrated profiles.
//
// Kernel and transfer durations are derived with a roofline model:
//
//	t_kernel   = max(FLOPs / (PeakFLOPS * effCompute), Bytes / (MemBW * effMem)) + launch overhead
//	t_transfer = Bytes / linkBW + link latency
//
// Only the *ratios* between layer costs matter for the scheduling
// decisions the paper studies (what to offload, what to recompute, how
// much workspace is affordable), so a roofline abstraction preserves the
// behaviour of the real substrate.
package hw

import (
	"fmt"
	"strings"

	"repro/internal/sim"
)

// KiB, MiB and GiB are binary byte units. The paper reports MB/GB in
// binary units (its AlexNet tensor sizes match NCHW geometry only when
// divided by 2^20), so we follow the same convention.
const (
	KiB int64 = 1 << 10
	MiB int64 = 1 << 20
	GiB int64 = 1 << 30
)

// DeviceSpec describes a simulated GPU.
type DeviceSpec struct {
	Name string

	// DRAMBytes is the physical device memory. UsableBytes is what a
	// process can actually allocate after the CUDA context and cuDNN
	// handles take their share.
	DRAMBytes   int64
	UsableBytes int64

	// PeakFLOPS is single-precision peak throughput (FLOP/s).
	PeakFLOPS float64
	// MemBWBytes is peak device memory bandwidth (bytes/s).
	MemBWBytes float64

	// KernelLaunch is the fixed host+device overhead per kernel.
	KernelLaunch sim.Duration

	// CudaMalloc/CudaFree are the modeled costs of the native CUDA
	// allocator; cudaFree additionally synchronizes the device, which
	// is the dominant reason frameworks avoid it on the training path
	// (ResNet-50 loses ~36% of iteration time to these calls, per the
	// paper §3.2.1).
	CudaMalloc sim.Duration
	CudaFree   sim.Duration

	// PoolOp is the cost of one allocation/deallocation in the
	// preallocated heap-based memory pool.
	PoolOp sim.Duration

	// EffScale and MemEffScale scale the per-layer-type roofline
	// efficiencies (internal/layers) to this device, capturing how well
	// the era's cuDNN kernels exploited it. The K40c (Kepler, 2013
	// kernels) sustains a much lower fraction of peak than the TITAN Xp
	// (Pascal, mature cuDNN 6 kernels).
	EffScale    float64
	MemEffScale float64
}

// LinkSpec describes an interconnect between memory spaces.
type LinkSpec struct {
	Name string
	// BytesPerSec is sustained bandwidth; Latency is the fixed setup
	// cost per transfer (driver + DMA descriptor).
	BytesPerSec float64
	Latency     sim.Duration
}

// TransferTime returns the modeled duration of moving n bytes across
// the link.
func (l LinkSpec) TransferTime(n int64) sim.Duration {
	if n <= 0 {
		return l.Latency
	}
	return l.Latency + sim.Duration(float64(n)/l.BytesPerSec*1e9)
}

// KernelTime applies the roofline model for a kernel with the given
// work, using efficiency factors in (0,1] for each roof.
func (d DeviceSpec) KernelTime(flops float64, bytes int64, effCompute, effMem float64) sim.Duration {
	if effCompute <= 0 || effMem <= 0 {
		panic("hw: non-positive efficiency")
	}
	tc := flops / (d.PeakFLOPS * effCompute)
	tm := float64(bytes) / (d.MemBWBytes * effMem)
	t := tc
	if tm > t {
		t = tm
	}
	return d.KernelLaunch + sim.Duration(t*1e9)
}

// Predefined device profiles. Peak numbers are the published board
// specs; efficiency is applied per layer type by the cost model in
// internal/layers.
var (
	// TeslaK40c: the paper's 12 GB capacity-experiment board.
	TeslaK40c = DeviceSpec{
		Name:         "Tesla K40c",
		DRAMBytes:    12 * GiB,
		UsableBytes:  12*GiB - 512*MiB,
		PeakFLOPS:    4.29e12,
		MemBWBytes:   288e9,
		KernelLaunch: 8 * sim.Microsecond,
		CudaMalloc:   150 * sim.Microsecond,
		CudaFree:     350 * sim.Microsecond,
		PoolOp:       1 * sim.Microsecond,
		EffScale:     0.42,
		MemEffScale:  0.80,
	}

	// TitanXP: the paper's throughput-experiment board (Fig. 14).
	TitanXP = DeviceSpec{
		Name:         "TITAN Xp",
		DRAMBytes:    12 * GiB,
		UsableBytes:  12*GiB - 512*MiB,
		PeakFLOPS:    12.15e12,
		MemBWBytes:   547.7e9,
		KernelLaunch: 6 * sim.Microsecond,
		CudaMalloc:   150 * sim.Microsecond,
		CudaFree:     350 * sim.Microsecond,
		PoolOp:       1 * sim.Microsecond,
		EffScale:     0.85,
		MemEffScale:  0.90,
	}
)

// DeviceByName resolves a device profile by its short name, "k40c" or
// "titanxp", ignoring case.
func DeviceByName(name string) (DeviceSpec, error) {
	switch strings.ToLower(name) {
	case "k40c":
		return TeslaK40c, nil
	case "titanxp":
		return TitanXP, nil
	}
	return DeviceSpec{}, fmt.Errorf("unknown device %q (have k40c, titanxp)", name)
}

// Interconnect profiles. The paper (§3.3.2) quotes practical speeds of
// 8 GB/s for CPU↔GPU over PCIe 3.0 x16 with pinned memory, 10 GB/s
// GPU↔GPU under one PCIe switch, and 6 GB/s for GPU-Direct RDMA.
// TensorFlow-style swapping with pageable memory loses at least 50% of
// the pinned bandwidth (§2.2).
var (
	PCIePinned    = LinkSpec{Name: "pcie-pinned", BytesPerSec: 8e9, Latency: 10 * sim.Microsecond}
	PCIePageable  = LinkSpec{Name: "pcie-pageable", BytesPerSec: 4e9, Latency: 25 * sim.Microsecond}
	PCIeP2P       = LinkSpec{Name: "pcie-p2p", BytesPerSec: 10e9, Latency: 8 * sim.Microsecond}
	GPUDirectRDMA = LinkSpec{Name: "gpudirect-rdma", BytesPerSec: 6e9, Latency: 15 * sim.Microsecond}
)
