// Package sched is a deterministic multi-tenant job scheduler over a
// simulated GPU cluster. SuperNeurons manages memory for one training
// job on one device; sched opens the multi-workload scenario class on
// top of it: a stream of training-job requests (network, batch,
// memory manager, priority, arrival time) is admitted onto N devices
// using the peak-memory and iteration-time estimates a single
// deterministic dry run of the core runtime produces
// (internal/core.Estimate).
//
// The model:
//
//   - Admission control. A job is admitted to a device only when its
//     predicted pool peak fits the device's remaining capacity; a job
//     whose dry run cannot fit an idle device at all is rejected up
//     front. Because every manager's Result is bit-reproducible, the
//     prediction is exact — an admitted job can never OOM its device.
//   - Capacity sharing. Admitted jobs reserve their peak for their
//     whole residency; the sum of reservations never exceeds the
//     device capacity (asserted after every admission).
//   - Compute interleaving. Each device owns one serial sim.Engine;
//     resident jobs time-share it round-robin, one training iteration
//     at a time, so their virtual-time schedules interleave exactly
//     like streams multiplexed on one GPU.
//   - Preemption. Preemptive policies may evict strictly
//     lower-priority residents at an iteration boundary; the victim
//     keeps its completed iterations, releases its reservation, and
//     re-enters the pending queue.
//   - Gang scheduling. A Job with GPUs=N is a synchronous
//     data-parallel gang: admission reserves its per-device dry-run
//     peak on N devices at once or not at all, each iteration occupies
//     all N engines simultaneously, its duration is the replica
//     iteration plus the exposed part of a bucketed ring all-reduce
//     priced by the slowest interconnect tier inside the placed gang
//     (Cluster.Topology), and preemption releases the whole gang
//     atomically at an iteration boundary.
//
// The whole simulation is a discrete-event loop over a typed
// (time, class, sequence) event queue (see run.go), so two runs of the
// same trace produce byte-identical results — and a paused, resumed or
// snapshot-restored run (see Incremental) cannot diverge from a batch
// run, because both drive the same exec through the same total event
// order.
package sched

import (
	"fmt"
	"log/slog"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/sim"
)

// Job is one training-job request in the workload stream.
type Job struct {
	// ID names the job in reports; it must be unique within a trace.
	ID string
	// Network and Batch select the model (see superneurons.Networks).
	Network string
	Batch   int
	// BatchSchedule, when non-empty, declares a dynamic per-iteration
	// batch schedule (iteration i runs at entry i mod len). Admission
	// then reserves the worst-case shape — the maximum dry-run peak
	// over the schedule's distinct batches — so a dynamic job can
	// never OOM its device mid-run, while each iteration is charged
	// its own shape's duration.
	BatchSchedule []int
	// GPUs is the gang size: the number of devices the job occupies
	// simultaneously as a synchronous data-parallel gang (0 and 1 both
	// mean a single device). Batch is the per-GPU batch; admission is
	// all-or-nothing — the job reserves its per-device dry-run peak on
	// every gang member or waits — and each iteration adds the exposed
	// part of a bucketed ring all-reduce priced by the slowest
	// interconnect tier inside the placed gang.
	GPUs int
	// Manager names the internal/core policy the job trains under
	// ("superneurons", "vdnn", "naive", ...). Empty selects "custom",
	// the bare device: every technique is off, the memory pool
	// included, so allocations pay the cudaMalloc cost model and
	// iterations run slower than under "naive".
	Manager string
	// Priority orders jobs under the priority policy; higher is more
	// important.
	Priority int
	// Arrival is when the request enters the cluster.
	Arrival sim.Time
	// Iterations is the job's training length (defaults to 1).
	Iterations int
}

// Cluster describes a homogeneous pool of simulated devices.
type Cluster struct {
	// Device is the per-GPU profile; capacity per device is its
	// usable bytes.
	Device hw.DeviceSpec
	// Devices is the pool size.
	Devices int
	// Topology classifies device pairs into interconnect tiers
	// (NVLink island / same-node PCIe / cross-node network) for gang
	// placement and all-reduce pricing. The zero value is one flat
	// PCIe-peer node — the historical single-tier cluster.
	Topology hw.Topology
	// Overlap overlaps each gang's gradient all-reduce with the
	// backward half of its iteration (the bucketed exchange); when
	// false gangs serialize compute then communicate.
	Overlap bool

	// CrossJob replaces worst-case-in-isolation admission with the
	// interference-aware device planner (internal/memplan): co-resident
	// jobs on a device are planned together — the device reserves the
	// planner's requirement (shared slabs plus the worst case over the
	// running tenant, not the sum of solo peaks), parked jobs' floors
	// may spill to a per-device host pool, and each spilled tenant pays
	// a per-iteration swap penalty. Admission still never over-commits:
	// a placement is taken only when the combined plan fits, so the
	// never-OOM guarantee is preserved by construction.
	CrossJob bool
	// HostSpillBytes bounds each device's host-side spill pool under
	// CrossJob (0 selects the 64 GiB default). Ignored otherwise.
	HostSpillBytes int64

	// Faults scripts deterministic device failures and recoveries (see
	// fault.go); the zero value is the historical always-healthy
	// cluster. Victims of a failure restore from their last
	// iteration-boundary checkpoint, gangs shrinking elastically to
	// their surviving members when they can.
	Faults FaultPlan
}

// Capacity returns the per-device memory capacity.
func (c Cluster) Capacity() int64 { return c.Device.UsableBytes }

// JobResult is the per-job outcome of one scheduled trace.
type JobResult struct {
	Job
	// Estimate is the dry-run prediction used for admission.
	Estimate core.Estimate
	// Rejected is set when the job cannot fit an idle device at all;
	// Reason says why. Rejected jobs have no timing fields.
	Rejected bool
	Reason   string

	// Device is where the job last ran (the gang's first device for a
	// multi-GPU job).
	Device int
	// Gang lists the devices of the job's last placement, ascending;
	// nil for single-device jobs.
	Gang []int
	// Start is the first admission; Finish the completion of the last
	// iteration.
	Start  sim.Time
	Finish sim.Time
	// Wait is Start-Arrival (queueing delay); JCT is Finish-Arrival.
	Wait sim.Duration
	JCT  sim.Duration
	// Preemptions counts how often the job was evicted and re-queued.
	Preemptions int
	// Restores counts device-failure checkpoint restores: each is one
	// resumption from the last completed iteration boundary, whether
	// by elastic gang shrink or full re-queue through admission.
	Restores int
	// Shrinks counts elastic gang shrinks — failures this job survived
	// by dropping the failed member and re-pricing its all-reduce over
	// the survivors, instead of being evicted.
	Shrinks int
	// LostIterations counts iterations aborted in flight by a device
	// failure; each was re-run from the checkpoint.
	LostIterations int
}

// DeviceStat aggregates one device over the schedule.
type DeviceStat struct {
	// Busy is the compute engine's busy time; BusyFrac is Busy over
	// the makespan.
	Busy     sim.Duration
	BusyFrac float64
	// PeakReserved is the high-water mark of memory reservations.
	PeakReserved int64
	// MemUtil is the time-weighted fraction of capacity reserved.
	MemUtil float64
	// Iterations counts training iterations executed on the device.
	Iterations int
	// PeakResidents is the maximum number of co-resident jobs the
	// device held at once — the co-tenancy interference-aware admission
	// buys (isolated admission caps it at what sum-of-peaks allows).
	PeakResidents int
	// SpillPeak is the high-water mark of the device's host-side spill
	// pool (always zero without Cluster.CrossJob).
	SpillPeak int64
	// Failures counts the device's scripted failure events; Downtime
	// is the total time spent failed (an outage still open at end of
	// trace is charged through the makespan).
	Failures int
	Downtime sim.Duration
}

// Result is the outcome of scheduling one trace on a cluster.
type Result struct {
	Policy  string
	Cluster Cluster

	// Jobs holds every job in input order (including rejected ones).
	Jobs []JobResult
	// Makespan is the completion time of the last job.
	Makespan sim.Duration
	// Devices holds per-device statistics.
	Devices []DeviceStat
	// Utilization is the cluster memory utilization: the
	// time-weighted fraction of total cluster capacity reserved by
	// admitted jobs over the makespan — the bin-packing objective a
	// memory-aware policy maximizes.
	Utilization float64
	// ComputeUtilization is the matching compute-busy fraction.
	ComputeUtilization float64
}

// Admitted returns the scheduled (non-rejected) jobs.
func (r *Result) Admitted() []JobResult {
	out := make([]JobResult, 0, len(r.Jobs))
	for _, j := range r.Jobs {
		if !j.Rejected {
			out = append(out, j)
		}
	}
	return out
}

// MeanJCT returns the mean job completion time over admitted jobs.
func (r *Result) MeanJCT() sim.Duration {
	adm := r.Admitted()
	if len(adm) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, j := range adm {
		sum += j.JCT
	}
	return sum / sim.Duration(len(adm))
}

// MeanWait returns the mean queueing delay over admitted jobs.
func (r *Result) MeanWait() sim.Duration {
	adm := r.Admitted()
	if len(adm) == 0 {
		return 0
	}
	var sum sim.Duration
	for _, j := range adm {
		sum += j.Wait
	}
	return sum / sim.Duration(len(adm))
}

// Scheduler binds a cluster to a policy. It owns the dry-run estimate
// memo: repeated Run calls on one scheduler share estimates, while two
// schedulers (or clusters) never leak state into each other.
type Scheduler struct {
	cluster Cluster
	policy  Policy
	est     *Estimator
	lg      *slog.Logger
}

// SetLogger routes structured scheduling events (admissions,
// preemptions, rejections, spill decisions) to lg; nil discards them.
// Logging is observation only — it never affects the schedule.
func (s *Scheduler) SetLogger(lg *slog.Logger) { s.lg = lg }

// NewScheduler returns a scheduler placing jobs on the cluster under
// the policy.
func NewScheduler(c Cluster, p Policy) (*Scheduler, error) {
	if err := validate(c, p); err != nil {
		return nil, err
	}
	return &Scheduler{cluster: c, policy: p, est: NewEstimator()}, nil
}

// validate checks a cluster and policy can schedule at all: devices
// with usable memory, a queue order, and a fault plan that names only
// the cluster's devices.
func validate(c Cluster, p Policy) error {
	if c.Devices <= 0 {
		return fmt.Errorf("sched: cluster needs at least one device, got %d", c.Devices)
	}
	if c.Device.UsableBytes <= 0 {
		return fmt.Errorf("sched: device %q has no usable memory", c.Device.Name)
	}
	if p.Less == nil {
		return fmt.Errorf("sched: policy %q has no queue order", p.Name)
	}
	return c.Faults.Validate(c.Devices)
}

// NewSchedulerWithEstimator is NewScheduler with a caller-provided
// estimate memo, letting policy comparisons over the same cluster pay
// for each distinct job shape's dry run once.
func NewSchedulerWithEstimator(c Cluster, p Policy, e *Estimator) (*Scheduler, error) {
	s, err := NewScheduler(c, p)
	if err != nil {
		return nil, err
	}
	if e != nil {
		s.est = e
	}
	return s, nil
}

// Run replays the job stream through the cluster and returns the
// schedule. The input slice is not mutated; jobs are identified by
// input order for every deterministic tie-break.
func (s *Scheduler) Run(jobs []Job) (*Result, error) {
	e, err := newExec(s.cluster, s.policy, s.est)
	if err != nil {
		return nil, err
	}
	e.setLogger(s.lg)
	// Dry-run every job's distinct shapes once for its admission
	// estimate; jobs whose worst-case shape cannot fit an idle device
	// are rejected up front. A dynamic job reserves its worst case for
	// its whole residency — the memory guarantee — while each
	// iteration is charged its own shape's measured duration.
	for _, j := range jobs {
		if _, err := e.addJob(j); err != nil {
			return nil, err
		}
	}
	// Arrivals, in input order for same-instant determinism; then the
	// scripted fault events (their class orders them after arrivals
	// and completions at equal instants).
	for i := range e.states {
		e.postArrival(i)
	}
	e.postFaults()
	e.processUntil(-1)
	return e.result()
}

// isOOM reports whether the dry run failed for capacity reasons.
func isOOM(err error) bool {
	return err != nil && errOOM(err)
}
