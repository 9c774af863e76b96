package sched

import (
	"errors"
	"fmt"
	"sync"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/memplan"
	"repro/internal/nnet"
	"repro/internal/program"
)

// Estimator memoizes dry-run admission estimates. Every manager's
// Result is deterministic, so one dry run per distinct
// (network, batch, manager, device) shape is exact forever — but the
// memo must be owned, not process-global: a global map grows without
// bound across clusters and leaks state between tests. Each Scheduler
// owns one Estimator; construct more with NewEstimator to share a memo
// deliberately.
type Estimator struct {
	mu      sync.Mutex
	cache   map[estKey]estVal
	demands map[demandKey][]memplan.TensorDemand
}

// NewEstimator returns an empty estimator.
func NewEstimator() *Estimator {
	return &Estimator{
		cache:   make(map[estKey]estVal),
		demands: make(map[demandKey][]memplan.TensorDemand),
	}
}

// Estimate predicts a job's peak pool footprint and iteration time by
// a memoized deterministic dry run: a thousand-job trace with a
// handful of distinct job shapes pays for a handful of dry runs.
func (e *Estimator) Estimate(network string, batch int, manager string, d hw.DeviceSpec) (core.Estimate, error) {
	key := estKey{network: network, batch: batch, manager: manager, device: d}
	e.mu.Lock()
	if v, ok := e.cache[key]; ok {
		e.mu.Unlock()
		return v.est, v.err
	}
	e.mu.Unlock()

	est, err := DryRun(network, batch, manager, d)
	e.mu.Lock()
	e.cache[key] = estVal{est: est, err: err}
	e.mu.Unlock()
	return est, err
}

// demandTopK bounds the tensor-granularity demand each job submits to
// its device planner: the largest shareable shapes carry nearly all of
// the cross-job reuse, and a short list keeps replanning (a fold over
// every member's tensors) cheap at high co-tenancy.
const demandTopK = 6

// TensorDemands returns the memoized tensor-granularity demand of the
// named network at the given batch — the largest shareable (data /
// gradient / workspace) shapes of its built program, the currency jobs
// submit to the device planner under Cluster.CrossJob. Shapes depend
// only on (network, batch), never on the manager or device, so the memo
// key is deliberately smaller than the estimate's.
func (e *Estimator) TensorDemands(network string, batch int) ([]memplan.TensorDemand, error) {
	key := demandKey{network: network, batch: batch}
	e.mu.Lock()
	if tds, ok := e.demands[key]; ok {
		e.mu.Unlock()
		return tds, nil
	}
	e.mu.Unlock()

	b := nnet.ByName(network)
	if b == nil {
		return nil, fmt.Errorf("sched: unknown network %q", network)
	}
	if batch <= 0 {
		return nil, fmt.Errorf("sched: batch must be positive, got %d", batch)
	}
	tds := core.TensorDemands(program.Build(b(batch)), demandTopK)
	e.mu.Lock()
	e.demands[key] = tds
	e.mu.Unlock()
	return tds, nil
}

// Len returns the number of memoized shapes (for tests and
// introspection).
func (e *Estimator) Len() int {
	e.mu.Lock()
	defer e.mu.Unlock()
	return len(e.cache)
}

// DryRun predicts a job's peak pool footprint and iteration time by
// running one iteration of the named network under the named memory
// manager on an otherwise-idle device. The run is deterministic, so
// the prediction is exact. DryRun itself is unmemoized; schedulers
// route through their own Estimator.
func DryRun(network string, batch int, manager string, d hw.DeviceSpec) (core.Estimate, error) {
	b := nnet.ByName(network)
	if b == nil {
		return core.Estimate{}, fmt.Errorf("sched: unknown network %q", network)
	}
	if batch <= 0 {
		return core.Estimate{}, fmt.Errorf("sched: batch must be positive, got %d", batch)
	}
	cfg, err := core.ManagerConfig(manager, d)
	if err != nil {
		return core.Estimate{}, fmt.Errorf("sched: %w", err)
	}
	net := b(batch)
	r, err := core.Measure(net, cfg)
	if err != nil {
		return core.Estimate{}, err
	}
	est := core.EstimateOf(r)
	// The gradient volume a data-parallel gang exchanges per iteration
	// is the replica's parameter bytes; recording it here keeps gang
	// admission a pure function of the memoized estimate.
	est.GradientBytes = net.ParamBytes()
	return est, nil
}

// estKey embeds the whole DeviceSpec (a comparable struct of
// scalars): every spec field feeds the cost model, so two devices
// sharing a name must not share estimates.
type estKey struct {
	network string
	batch   int
	manager string
	device  hw.DeviceSpec
}

type estVal struct {
	est core.Estimate
	err error
}

// demandKey memoizes tensor demands per program shape.
type demandKey struct {
	network string
	batch   int
}

// errOOM reports whether a dry run failed for capacity reasons.
func errOOM(err error) bool { return errors.Is(err, core.ErrOutOfMemory) }
