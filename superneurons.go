// Package superneurons is a faithful Go reproduction of
// "SuperNeurons: Dynamic GPU Memory Management for Training Deep
// Neural Networks" (Wang et al., PPoPP 2018): a dynamic scheduling
// runtime that trains networks far beyond the GPU DRAM capacity by
// combining Liveness Analysis, a Unified Tensor Pool
// (offload/prefetch with an LRU Tensor Cache), and Cost-Aware
// Recomputation, while dynamically allocating convolution workspaces
// for speed.
//
// The GPU, cuDNN kernels and PCIe links are provided by a
// deterministic virtual-time simulator (see DESIGN.md for the
// substitution argument), so every experiment from the paper runs on
// a laptop:
//
//	net, _ := superneurons.Build("ResNet50", 384)
//	res, err := superneurons.Run(net, superneurons.DefaultConfig(superneurons.TeslaK40c))
//	if err != nil { ... }
//	fmt.Println(superneurons.Summary(res))
//
// The memory policies of Caffe, Torch, MXNet and TensorFlow are
// modeled on the same substrate (Frameworks) so the paper's capacity
// and throughput comparisons isolate exactly the policy differences.
package superneurons

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/nnet"
	"repro/internal/policy"
	"repro/internal/recompute"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/utp"
	"repro/internal/workload"
)

// Core types, re-exported for API stability.
type (
	// Config selects the device and the memory/performance techniques.
	Config = core.Config
	// Result is the profile of one simulated training run.
	Result = core.Result
	// StepProfile is the per-step memory/timing record behind Fig. 10.
	StepProfile = core.StepProfile
	// Device describes a simulated GPU.
	Device = hw.DeviceSpec
	// Network is a layer graph built by Build or the nnet builders.
	Network = nnet.Net
	// Framework is a named competing memory policy.
	Framework = policy.Framework
)

// Device profiles used in the paper's evaluation.
var (
	// TeslaK40c is the 12 GB card of the capacity experiments.
	TeslaK40c = hw.TeslaK40c
	// TitanXP is the card of the throughput experiments (Fig. 14).
	TitanXP = hw.TitanXP
)

// ErrOutOfMemory reports that a configuration cannot train a network.
var ErrOutOfMemory = core.ErrOutOfMemory

// Recomputation strategies (§3.4).
const (
	RecomputeNone          = recompute.None
	RecomputeSpeedCentric  = recompute.SpeedCentric
	RecomputeMemoryCentric = recompute.MemoryCentric
	RecomputeCostAware     = recompute.CostAware
)

// Unified Tensor Pool offload modes (§3.3).
const (
	OffloadNone        = utp.OffloadNone
	OffloadConv        = utp.OffloadConv
	OffloadConvAndKept = utp.OffloadConvAndKept
	OffloadSwapAll     = utp.OffloadSwapAll
)

// DefaultConfig returns the full SuperNeurons runtime configuration
// for the device: liveness analysis, pinned offload/prefetch with the
// LRU tensor cache, cost-aware recomputation, the heap memory pool and
// dynamic convolution workspaces.
func DefaultConfig(d Device) Config { return core.SuperNeurons(d) }

// Managers returns the names of the memory managers (internal/core)
// ManagerConfig accepts: "superneurons" is the paper's runtime, "vdnn"
// the offload-everything baseline, "naive" keep-everything, the
// framework models mirror Caffe, Torch, MXNet and TensorFlow, and
// "custom" is the bare device the ablation studies switch techniques
// on for.
func Managers() []string { return core.Names() }

// ManagerConfig returns the named manager's configuration on the given
// device. It is an ordinary Config: a field set on it afterwards takes
// effect. The empty name selects "custom"; an unknown name is an error
// listing Managers().
func ManagerConfig(manager string, d Device) (Config, error) {
	return core.ManagerConfig(manager, d)
}

// BaselineConfig returns the naive network-wide allocation strategy
// (peak memory Σ l_i^f + Σ l_i^b) used as the paper's reference point.
func BaselineConfig(d Device) Config { return core.Baseline(d) }

// Build constructs a named network at the given batch size. Networks
// lists the valid names; ResNets of custom depth are available through
// BuildResNet.
func Build(name string, batch int) (*Network, error) {
	if batch <= 0 {
		return nil, fmt.Errorf("superneurons: batch must be positive, got %d", batch)
	}
	b := nnet.ByName(name)
	if b == nil {
		return nil, fmt.Errorf("superneurons: unknown network %q (have %s)",
			name, strings.Join(Networks(), ", "))
	}
	return b(batch), nil
}

// BuildResNet constructs a bottleneck ResNet from the four stage
// repeat counts of the paper's Table 4: depth = 3(n1+n2+n3+n4)+2.
func BuildResNet(batch, n1, n2, n3, n4 int) *Network {
	return nnet.ResNetStages(batch, n1, n2, n3, n4)
}

// Networks returns the canonical architecture names in evaluation
// order.
func Networks() []string {
	names := make([]string, len(nnet.Registry))
	for i, e := range nnet.Registry {
		names[i] = e.Name
	}
	return names
}

// Run simulates training iterations of the network under the
// configuration and returns the last iteration's profile.
func Run(net *Network, cfg Config) (*Result, error) { return core.Run(net, cfg) }

// Dynamic workloads: training runs whose input shape changes between
// iterations (bucketed sequence lengths, batch ramps). The program is
// rebuilt for the incoming shape at each iteration boundary; with
// Config.AdaptivePlan the offload/prefetch/recompute plan is revised
// online from the previous iteration's OOM, peak headroom, stall
// fraction and predicted next-shape peak instead of replaying the
// one-shot static plan.
type (
	// BatchSchedule is a per-iteration batch schedule (entry i is
	// iteration i's batch size, cycling past the end).
	BatchSchedule = workload.Schedule
	// DynamicResult aggregates a dynamic run: per-iteration profiles,
	// OOM failures, plan revisions, total stall and throughput.
	DynamicResult = core.DynamicResult
	// DynamicIteration is one iteration's record in a DynamicResult.
	DynamicIteration = core.IterationProfile
)

// RampSchedule interpolates a batch ramp from 'from' to 'to' over n
// iterations.
func RampSchedule(from, to, n int) BatchSchedule { return workload.Ramp(from, to, n) }

// BucketSchedule repeats each batch size reps times in order (the
// bucketed sequence-length regime).
func BucketSchedule(reps int, batches ...int) BatchSchedule {
	return workload.Buckets(reps, batches...)
}

// DynamicSchedules returns the bundled dynamic-batch schedules by
// name.
func DynamicSchedules() map[string]BatchSchedule { return workload.DynamicSchedules }

// RunDynamic simulates a dynamic-shape training run of the named
// network: iteration i runs at cfg.BatchSchedule[i mod len]. Set
// cfg.AdaptivePlan to revise the memory plan online.
func RunDynamic(network string, cfg Config) (*DynamicResult, error) {
	b := nnet.ByName(network)
	if b == nil {
		return nil, fmt.Errorf("superneurons: unknown network %q (have %s)",
			network, strings.Join(Networks(), ", "))
	}
	return core.RunDynamic(b, cfg)
}

// Frameworks returns the competing memory-policy models (Caffe, MXNet,
// Torch, TensorFlow, SuperNeurons) in the paper's table order.
func Frameworks() []Framework { return policy.All }

// FrameworkByName resolves a framework model by name.
func FrameworkByName(name string) (Framework, bool) { return policy.ByName(name) }

// MaxBatch returns the largest trainable batch for a framework and
// network on the device (Table 5's metric).
func MaxBatch(f Framework, network string, d Device, limit int) (int, error) {
	b := nnet.ByName(network)
	if b == nil {
		return 0, fmt.Errorf("superneurons: unknown network %q", network)
	}
	return policy.MaxBatch(f, b, d, limit)
}

// MaxDepth returns the deepest trainable Table-4 ResNet for a
// framework at the batch size (Table 4's metric), as (n3, depth).
func MaxDepth(f Framework, d Device, batch, maxN3 int) (int, int, error) {
	return policy.MaxDepth(f, d, batch, maxN3)
}

// Throughput returns a framework's training speed (img/s) on the
// network at the given batch, honoring the framework's configuration
// fallback chain (e.g. TensorFlow only swaps when it must). It returns
// 0 when no configuration fits.
func Throughput(f Framework, network string, batch int, d Device) (float64, error) {
	b := nnet.ByName(network)
	if b == nil {
		return 0, fmt.Errorf("superneurons: unknown network %q", network)
	}
	return policy.Speed(f, b(batch), d)
}

// Multi-tenant scheduling (internal/sched): a deterministic scheduler
// places a stream of training-job requests onto a simulated cluster,
// using the memory managers' dry-run peak/iteration estimates for
// admission control, bin-packing placement, queueing and preemption.
type (
	// Cluster describes a homogeneous pool of simulated GPUs.
	Cluster = sched.Cluster
	// Job is one training-job request (network, batch, manager,
	// priority, arrival, iterations).
	Job = sched.Job
	// Scheduler binds a cluster to a scheduling policy.
	Scheduler = sched.Scheduler
	// SchedulerPolicy declares queue order, backfill, placement and
	// preemption behavior.
	SchedulerPolicy = sched.Policy
	// ScheduleResult is the outcome of replaying a job stream:
	// per-job JCT/queueing, per-device stats, cluster utilization.
	ScheduleResult = sched.Result
	// JobSchedule is the per-job slice of a ScheduleResult.
	JobSchedule = sched.JobResult
	// JobEstimate is the dry-run prediction admission control uses.
	JobEstimate = core.Estimate
)

// The built-in scheduler policies.
var (
	// SchedFIFO admits strictly in arrival order (head-of-line
	// blocking included).
	SchedFIFO = sched.FIFO
	// SchedPriority admits by priority and preempts lower-priority
	// residents at iteration boundaries.
	SchedPriority = sched.Priority
	// SchedPacking is memory-aware: backfills past a blocked head
	// onto the device where the job packs tightest.
	SchedPacking = sched.Packing
	// SchedTopoPacking is SchedPacking plus topology awareness: gangs
	// land on the tightest NVLink island that holds them whole, then
	// the tightest node, and only then span nodes.
	SchedTopoPacking = sched.TopoPacking
)

// Topology classifies a cluster's device pairs into interconnect
// tiers (NVLink island / same-node PCIe / cross-node network) for
// gang placement and all-reduce pricing (see Cluster.Topology).
type Topology = hw.Topology

// DefaultClusterTopology is the DGX-style layout the gang evaluation
// runs on: nodes of 8 devices, two 4-device NVLink islands per node.
func DefaultClusterTopology() Topology { return hw.DefaultTopology() }

// SchedulerPolicies lists the built-in policies in comparison order.
func SchedulerPolicies() []SchedulerPolicy { return sched.Policies() }

// NewScheduler returns a scheduler placing jobs on the cluster under
// the policy.
func NewScheduler(c Cluster, p SchedulerPolicy) (*Scheduler, error) {
	return sched.NewScheduler(c, p)
}

// EstimateJob predicts a job's peak pool footprint and iteration time
// on the device by one deterministic dry run — the admission estimate
// the scheduler uses. Each call pays for its own dry run; the
// scheduler itself memoizes estimates per distinct job shape in an
// estimator it owns, so traces replay cheaply without any
// process-global cache.
func EstimateJob(network string, batch int, manager string, d Device) (JobEstimate, error) {
	return sched.DryRun(network, batch, manager, d)
}

// DefaultClusterTrace returns the bundled multi-tenant workload trace
// (see cmd/snsched and examples/multitenant).
func DefaultClusterTrace() []Job {
	return sched.JobsFromTrace(workload.DefaultTrace())
}

// DynamicClusterTrace returns the bundled dynamic-workload trace:
// jobs with per-iteration batch schedules, admitted by their
// worst-case shape (snsched -dynamic replays it).
func DynamicClusterTrace() []Job {
	return sched.JobsFromTrace(workload.DefaultDynamicTrace())
}

// GangClusterTrace returns the bundled 1000-job multi-GPU gang trace
// for a 256-device multi-node cluster (snsched -gang replays it; pair
// it with DefaultClusterTopology and the topo policy).
func GangClusterTrace() []Job {
	return sched.JobsFromTrace(workload.GangTrace())
}

// CoTenantClusterTrace returns the bundled 48-job co-tenancy trace for
// a CoTenantClusterDevices-device cluster: arrival waves of large jobs
// whose worst-case peaks interleave, built to separate isolated
// admission from cross-job planning (snsched -cotenant replays it;
// pair it with Cluster.CrossJob — see examples/crossjob).
func CoTenantClusterTrace() []Job {
	return sched.JobsFromTrace(workload.CoTenantTrace())
}

// CoTenantClusterDevices is the cluster size CoTenantClusterTrace
// targets.
const CoTenantClusterDevices = workload.CoTenantClusterDevices

// Cluster construction and the deterministic fault layer
// (internal/sched): NewCluster assembles a Cluster from per-device
// specs and functional options — the constructor path over bare
// struct literals, which keep working unchanged.
type (
	// ClusterOption configures a Cluster assembled by NewCluster
	// (WithClusterTopology, WithAllReduceOverlap, WithCrossJobPlanning,
	// WithFaultPlan).
	ClusterOption = sched.Option
	// FaultPlan scripts a cluster's deterministic device failures and
	// recoveries; the zero value is the always-healthy cluster.
	FaultPlan = sched.FaultPlan
	// FaultEvent is one scripted change of a device's availability.
	FaultEvent = sched.FaultEvent
)

// NewCluster assembles a Cluster from per-device specs and options.
// The specs must be non-empty and homogeneous; an option-built cluster
// compares equal to the matching struct literal.
func NewCluster(devices []Device, opts ...ClusterOption) (Cluster, error) {
	return sched.NewCluster(devices, opts...)
}

// UniformCluster expands one device spec into an n-device pool for
// NewCluster.
func UniformCluster(spec Device, n int) []Device { return sched.Uniform(spec, n) }

// WithClusterTopology classifies the pool's device pairs into
// interconnect tiers for gang placement and all-reduce pricing.
func WithClusterTopology(t Topology) ClusterOption { return sched.WithTopology(t) }

// WithAllReduceOverlap overlaps each gang's gradient all-reduce with
// the backward half of its iteration.
func WithAllReduceOverlap() ClusterOption { return sched.WithOverlap() }

// WithCrossJobPlanning enables interference-aware cross-job admission
// with a per-device host spill pool of spillBytes (0 selects the
// default).
func WithCrossJobPlanning(spillBytes int64) ClusterOption { return sched.WithCrossJob(spillBytes) }

// WithFaultPlan scripts the cluster's deterministic fault layer:
// scripted device failures and recoveries fire through the event
// queue, victims restore from iteration-boundary checkpoints, and
// gangs shrink elastically to surviving members when they can.
func WithFaultPlan(p FaultPlan) ClusterOption { return sched.WithFaultPlan(p) }

// FaultClusterTrace returns the bundled failure-scenario trace — jobs
// and scripted device faults for a FaultClusterDevices-device cluster
// (snsched -scenario faults replays it).
func FaultClusterTrace() ([]Job, FaultPlan) {
	jobs, faults := workload.FaultTrace()
	return sched.JobsFromTrace(jobs), sched.FaultsFromTrace(faults)
}

// FaultClusterDevices is the cluster size FaultClusterTrace targets.
const FaultClusterDevices = workload.FaultClusterDevices

// CompareSchedulers replays the job stream on the cluster under every
// built-in policy, in SchedulerPolicies() order.
func CompareSchedulers(c Cluster, jobs []Job) ([]*ScheduleResult, error) {
	return policy.CompareSchedulers(c, jobs)
}

// Serving layer (internal/serve): a long-running service that accepts
// training-job submissions concurrently over HTTP/JSON, sequences them
// deterministically onto the cluster scheduler, and logs every
// admitted job so a day of traffic replays byte-identically through
// the batch path (cmd/snsched). See cmd/snserved for the daemon and
// cmd/snload for the load generator.
type (
	// ServeConfig parameterizes a Service (cluster, policy, bounded
	// admission queue, per-tenant quota, write-ahead log).
	ServeConfig = serve.Config
	// Service is the concurrent job-submission front-end.
	Service = serve.Service
	// ServeClient is the typed HTTP client for a Service.
	ServeClient = serve.Client
	// SubmitRequest is one training-job submission.
	SubmitRequest = serve.SubmitRequest
	// JobStatus is the service's view of one submitted job.
	JobStatus = serve.JobStatus
	// ServeMetrics is the service's cluster snapshot.
	ServeMetrics = serve.Metrics
	// LoadConfig and LoadReport parameterize RunLoad, the concurrent
	// load generator.
	LoadConfig = serve.LoadConfig
	LoadReport = serve.LoadReport
	// RetryPolicy shapes ServeClient.SubmitRetry: capped exponential
	// backoff with full jitter, honoring Retry-After, bounded by an
	// attempt cap.
	RetryPolicy = serve.RetryPolicy
	// RecoveredLog is what a service rebuilt from its write-ahead log
	// (ServeConfig.WALDir): the merged-log prefix, the surviving
	// idempotency bindings, and the torn-tail report if the process
	// died mid-append.
	RecoveredLog = serve.RecoveredLog
)

// NewService starts a job-submission service over the cluster.
func NewService(cfg ServeConfig) (*Service, error) { return serve.New(cfg) }

// RunLoad drives a Service with concurrent clients and reports
// throughput and submission-latency percentiles.
func RunLoad(cfg LoadConfig) (*LoadReport, error) { return serve.RunLoad(cfg) }

// RecoverWAL reads a service's write-ahead log directory (read-only)
// and rebuilds the merged-log prefix a restart would resume from,
// truncating nothing; see ServeConfig.WALDir and DESIGN.md §11.
func RecoverWAL(dir string) (*RecoveredLog, error) { return serve.RecoverWAL(dir) }

// Summary renders a human-readable report of a run.
func Summary(r *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s batch %d\n", r.Network, r.Batch)
	fmt.Fprintf(&b, "  peak memory      %8.2f MiB (baseline Σf+Σb %.2f, layer floor max(l_i) %.2f)\n",
		mib(r.PeakResident), mib(r.BaselineBytes), mib(r.LPeak))
	fmt.Fprintf(&b, "  persistent state %8.2f MiB (params, param grads, aux)\n", mib(r.PersistentBytes))
	fmt.Fprintf(&b, "  pool high-water  %8.2f MiB\n", mib(r.PoolPeak))
	fmt.Fprintf(&b, "  iteration time   %v  (%.1f img/s)\n", r.IterTime, r.Throughput)
	fmt.Fprintf(&b, "  pcie traffic     %8.2f MiB out, %.2f MiB in, stalls %v\n",
		mib(r.OffloadBytes), mib(r.PrefetchBytes), r.StallTime)
	fmt.Fprintf(&b, "  recompute        %d extra forward passes\n", r.ExtraForwards)
	fmt.Fprintf(&b, "  allocator        %d allocs / %d frees, %v total\n",
		r.AllocCalls, r.FreeCalls, r.AllocTime)
	if r.CacheHits+r.CacheMisses > 0 {
		fmt.Fprintf(&b, "  tensor cache     %d hits / %d misses / %d evictions\n",
			r.CacheHits, r.CacheMisses, r.Evictions)
	}
	return b.String()
}

// PeakSteps returns the labels of the k steps with the highest
// resident footprints, most expensive first — a quick answer to
// "where does the memory go".
func PeakSteps(r *Result, k int) []string {
	steps := make([]StepProfile, len(r.Steps))
	copy(steps, r.Steps)
	sort.Slice(steps, func(i, j int) bool { return steps[i].ResidentBytes > steps[j].ResidentBytes })
	if k > len(steps) {
		k = len(steps)
	}
	out := make([]string, k)
	for i := 0; i < k; i++ {
		out[i] = fmt.Sprintf("%s (%.2f MiB)", steps[i].Label, mib(steps[i].ResidentBytes))
	}
	return out
}

func mib(b int64) float64 { return float64(b) / (1 << 20) }
