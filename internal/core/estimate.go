package core

// Admission summaries: what a multi-tenant scheduler reads off a dry
// run (Estimate) and the bridge from a job's program to the device
// planner's tensor-granularity protocol (TensorDemands) — the job's
// largest shareable functional shapes and their sizes.

import (
	"sort"

	"repro/internal/memplan"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/tensor"
)

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
	// traffic under its solo plan. It is reported only: the device
	// planner prices spills from the floors it parks, not from this.
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

// shareableKind reports whether a tensor's slab is content-free between
// iterations and therefore a cross-job sharing candidate: functional
// tensors only. Persistent state (parameters, parameter gradients,
// auxiliary buffers) carries values across iterations and is exactly
// the floor — never shareable.
func shareableKind(k tensor.Kind) bool {
	switch k {
	case tensor.Data, tensor.Grad, tensor.Workspace:
		return true
	}
	return false
}

// TensorDemands extracts a program's topK largest shareable functional
// shapes as device-planner demand entries. Each distinct shape is
// declared once — within one job, same-shape tensors can be live
// concurrently and are NOT interchangeable, so only a single instance
// per shape is offered for cross-job lifting (the conservative side of
// the sharing model). Only tensors some step reads or writes count; a
// recompute-dropped tensor is never materialized.
// The result is sorted largest-first (ties by key) so truncation and
// replay are deterministic.
func TensorDemands(p *program.Program, topK int) []memplan.TensorDemand {
	if p == nil || topK <= 0 {
		return nil
	}
	touched := make([]bool, p.Reg.Len())
	for si := range p.Steps {
		for _, t := range p.Steps[si].Reads {
			touched[t.ID] = true
		}
		for _, t := range p.Steps[si].Writes {
			touched[t.ID] = true
		}
	}

	byKey := make(map[uint64]int64)
	for _, t := range p.Reg.All() {
		if !shareableKind(t.Kind) || !touched[t.ID] {
			continue
		}
		key := memplan.ShapeKey(t.Shape.N, t.Shape.C, t.Shape.H, t.Shape.W, tensor.ElemSize)
		if _, ok := byKey[key]; !ok {
			byKey[key] = t.Bytes()
		}
	}

	out := make([]memplan.TensorDemand, 0, len(byKey))
	for key, b := range byKey {
		out = append(out, memplan.TensorDemand{Key: key, Bytes: b})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Bytes != out[j].Bytes {
			return out[i].Bytes > out[j].Bytes
		}
		return out[i].Key < out[j].Key
	})
	if len(out) > topK {
		out = out[:topK]
	}
	return out
}
