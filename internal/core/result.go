package core

import (
	"repro/internal/layers"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/trace"
)

// StepProfile records the memory state after one step executed — the
// data behind the paper's Fig. 10 step-wise curves and Fig. 12
// workspace bars.
type StepProfile struct {
	Index int
	Label string
	Phase program.Phase

	// ResidentBytes is the functional-tensor footprint on the GPU
	// after the step's frees; LiveTensors the matching tensor count.
	ResidentBytes int64
	LiveTensors   int
	// PoolUsedBytes additionally includes persistent state.
	PoolUsedBytes int64

	// Workspace accounting for CONV steps: what the dynamic policy
	// assigned vs. what the fastest algorithm would have wanted.
	WorkspaceBytes    int64
	MaxSpeedWorkspace int64
	Algo              layers.AlgoKind

	// Time is the step's wall-clock (virtual) duration including
	// allocation costs and un-hidden transfer stalls.
	Time sim.Duration
}

// Result aggregates one run.
type Result struct {
	Network string
	Batch   int

	Steps []StepProfile

	// PeakResident / PeakStep: the network-wide peak_m over the
	// iteration and where it occurred.
	PeakResident int64
	PeakStep     int
	// PoolPeak includes persistent state (what must fit on the card).
	PoolPeak int64

	// BaselineBytes is Σ l_i^f + Σ l_i^b for reference; LPeak is
	// max(l_i), the layer-wise floor; PersistentBytes covers
	// parameters, their gradients and auxiliary state.
	BaselineBytes   int64
	LPeak           int64
	PersistentBytes int64

	// IterTime is the duration of one steady-state iteration;
	// Throughput the resulting images/second.
	IterTime   sim.Duration
	Throughput float64

	// Traffic per iteration.
	OffloadBytes  int64 // D2H: eager offloads + cache evictions
	PrefetchBytes int64 // H2D: prefetches + on-demand fetches
	CacheHits     int64
	CacheMisses   int64
	Evictions     int64
	// FailedPrefetches counts planned prefetches that could not
	// allocate under memory pressure and fell back to fetch-on-demand —
	// a near-miss signal the adaptive planner consumes.
	FailedPrefetches int64

	// ExtraForwards counts recomputation replays (Table 1).
	ExtraForwards int

	// Allocator activity.
	AllocCalls int64
	FreeCalls  int64
	AllocTime  sim.Duration

	// StallTime is host time spent waiting on transfers that could not
	// be hidden; engine busy times expose the achieved overlap.
	StallTime   sim.Duration
	ComputeBusy sim.Duration
	H2DBusy     sim.Duration
	D2HBusy     sim.Duration

	// Trace holds the timeline spans of the last iteration when
	// Config.CollectTrace is set.
	Trace []trace.Span
}

// TotalTraffic returns bytes moved across PCIe in one iteration (the
// paper's Table 3 metric).
func (r *Result) TotalTraffic() int64 { return r.OffloadBytes + r.PrefetchBytes }
