// Package dataparallel models synchronous data-parallel training on
// top of the per-GPU SuperNeurons runtime. The paper (§2.1) frames its
// contribution inside this regime: every GPU holds a network replica
// and computes a sub-gradient over a sub-batch, and the sub-gradients
// are aggregated into one global gradient before the weight update —
// the only inter-GPU communication, exchanged here with a bandwidth-
// optimal ring all-reduce (Wang et al. [25]).
//
// Replicas are deterministic and identical, so one simulated replica
// characterizes them all; the package composes its iteration time with
// the all-reduce cost over the chosen interconnect.
package dataparallel

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/nnet"
	"repro/internal/sim"
)

// Config describes a data-parallel training setup.
type Config struct {
	// Replicas is the number of GPUs, each holding a full replica.
	Replicas int
	// PerGPU configures each replica's runtime.
	PerGPU core.Config
	// Interconnect carries the gradient exchange (PCIe P2P when zero).
	Interconnect hw.LinkSpec
	// OverlapComm overlaps the all-reduce with the tail of the
	// backward pass (bucketed gradient exchange); without it the
	// exchange serializes after the iteration.
	OverlapComm bool
}

// Result summarizes one data-parallel iteration.
type Result struct {
	Replicas int
	// Replica is the per-GPU profile (identical across GPUs), without
	// step profiles: its Steps is nil.
	Replica *core.Result
	// GradientBytes is the per-replica gradient volume exchanged.
	GradientBytes int64
	// AllReduceTime is the ring all-reduce duration; ExposedComm the
	// part not hidden behind computation.
	AllReduceTime sim.Duration
	ExposedComm   sim.Duration
	// IterTime is the global iteration time; GlobalThroughput the
	// aggregate img/s across replicas.
	IterTime          sim.Duration
	GlobalThroughput  float64
	ScalingEfficiency float64 // GlobalThroughput / (Replicas × single-GPU throughput)
}

// RingAllReduceTime returns the classic ring all-reduce cost for n
// bytes across k participants: 2(k-1)/k of the data crosses each
// link, plus per-step latency.
func RingAllReduceTime(link hw.LinkSpec, bytes int64, k int) sim.Duration {
	return GangAllReduce(link, bytes, k, 1)
}

// DefaultBuckets is the gradient bucket count of the bucketed
// exchange: fine enough that the first bucket is ready early in the
// backward pass, coarse enough that the per-bucket latency overhead
// stays below a percent of the bandwidth term for the networks in the
// zoo.
const DefaultBuckets = 8

// GangAllReduce prices a bucketed ring all-reduce of n bytes across k
// participants on one link (the caller passes the slowest link of the
// gang; see hw.Topology.SlowestLink). The gradient is split into
// `buckets` independent ring all-reduces; each moves 2(k-1)/k of its
// bucket across every link with a per-step setup latency, so more
// buckets cost more latency but expose earlier overlap opportunities.
// buckets must be at least 1; a message smaller than buckets bytes is
// split into one-byte buckets.
func GangAllReduce(link hw.LinkSpec, bytes int64, k, buckets int) sim.Duration {
	if k <= 1 || bytes <= 0 {
		return 0
	}
	if int64(buckets) > bytes {
		buckets = int(bytes)
	}
	steps := 2 * (k - 1)
	per := bytes / int64(buckets)
	var total sim.Duration
	for b := 0; b < buckets; b++ {
		bb := per
		if b == buckets-1 {
			bb = bytes - per*int64(buckets-1) // last bucket carries the remainder
		}
		chunk := bb / int64(k)
		for i := 0; i < steps; i++ {
			total += link.TransferTime(chunk)
		}
	}
	return total
}

// PriceGang prices a placed gang's per-iteration collective: the
// bucketed ring all-reduce of the replica gradient across the gang,
// set by the slowest pairwise link inside it. Admission and elastic
// gang shrink both route through it, so a shrunk gang is re-priced by
// exactly the rule that priced it at admission — over the surviving
// topology subset. A gang of one (or none) has no collective.
func PriceGang(topo hw.Topology, gang []int, gradientBytes int64, buckets int) sim.Duration {
	if len(gang) <= 1 {
		return 0
	}
	return GangAllReduce(topo.SlowestLink(gang), gradientBytes, len(gang), buckets)
}

// ExposedAllReduce is the overlap model: with overlap enabled, the
// bucketed exchange hides behind the backward half of the iteration
// (gradients materialize back-to-front through backprop, so roughly
// half the iteration is exchange-eligible) and only the remainder
// extends the iteration; serialized, the whole exchange is exposed.
func ExposedAllReduce(allReduce, iterTime sim.Duration, overlap bool) sim.Duration {
	if !overlap {
		return allReduce
	}
	window := iterTime / 2
	if allReduce > window {
		return allReduce - window
	}
	return 0
}

// Run simulates one synchronous data-parallel iteration: build
// constructs the per-GPU replica at the per-GPU batch size.
func Run(build nnet.BuilderFunc, perGPUBatch int, cfg Config) (*Result, error) {
	if cfg.Replicas < 1 {
		return nil, fmt.Errorf("dataparallel: need at least one replica, got %d", cfg.Replicas)
	}
	if cfg.Interconnect.BytesPerSec == 0 {
		cfg.Interconnect = hw.PCIeP2P
	}
	net := build(perGPUBatch)
	rep, err := core.Measure(net, cfg.PerGPU)
	if err != nil {
		return nil, fmt.Errorf("dataparallel: replica: %w", err)
	}
	grad := net.ParamBytes()
	ar := GangAllReduce(cfg.Interconnect, grad, cfg.Replicas, DefaultBuckets)
	exposed := ExposedAllReduce(ar, rep.IterTime, cfg.OverlapComm && cfg.Replicas > 1)
	iter := rep.IterTime + exposed
	res := &Result{
		Replicas:      cfg.Replicas,
		Replica:       rep,
		GradientBytes: grad,
		AllReduceTime: ar,
		ExposedComm:   exposed,
		IterTime:      iter,
	}
	if iter > 0 {
		res.GlobalThroughput = float64(cfg.Replicas*perGPUBatch) / iter.Seconds()
		res.ScalingEfficiency = res.GlobalThroughput / (float64(cfg.Replicas) * rep.Throughput)
	}
	return res, nil
}
