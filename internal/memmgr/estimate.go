package memmgr

import "repro/internal/sim"

// Estimate is the admission-control summary of one dry run: what a
// manager predicts a job will cost on an otherwise-idle device. Every
// manager's Result is deterministic (the conformance suite asserts
// bit-reproducibility), so an Estimate extracted from a single
// dry-run iteration is a sound capacity bound for a multi-tenant
// scheduler — the run *is* the prediction.
type Estimate struct {
	// PeakBytes is the pool high-water mark including persistent
	// state: what must be free on a device to admit the job.
	PeakBytes int64
	// IterTime is the duration of one steady-state iteration when the
	// job runs alone on the device.
	IterTime sim.Duration
	// Throughput is the matching images/second.
	Throughput float64
	// GradientBytes is the per-replica gradient volume a data-parallel
	// gang exchanges every iteration (the network's parameter bytes).
	// Zero for estimates taken before the field existed; single-device
	// jobs never read it.
	GradientBytes int64

	// FloorBytes is the persistent residue (parameters, parameter
	// gradients, auxiliary state) a job pins even between iterations —
	// what a parked co-tenant costs on a shared device. Zero for
	// estimates taken before the field existed, which the device
	// planner treats as floor == peak (worst-case-in-isolation).
	FloorBytes int64
	// SpillBytes is the job's own per-iteration offload+prefetch
	// traffic under its solo plan: its standing claim on the host link
	// that co-tenant spill planning must budget around.
	SpillBytes int64
}

// EstimateOf extracts the scheduling estimate from a dry run's Result.
func EstimateOf(r *Result) Estimate {
	floor := r.PersistentBytes
	if floor > r.PoolPeak {
		floor = r.PoolPeak
	}
	return Estimate{
		PeakBytes:  r.PoolPeak,
		IterTime:   r.IterTime,
		Throughput: r.Throughput,
		FloorBytes: floor,
		SpillBytes: r.TotalTraffic(),
	}
}
