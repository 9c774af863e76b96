package core

import (
	"sync"

	"repro/internal/gpumem"
	"repro/internal/liveness"
	"repro/internal/nnet"
	"repro/internal/program"
	"repro/internal/recompute"
	"repro/internal/tcache"
	"repro/internal/utp"
)

// runArena owns the reusable backing arrays of one run: the lowered
// program, the liveness analysis, both plans, the per-tensor state,
// the memory pools and the Tensor Cache. A run draws an arena, lowers
// and binds into it, and gives it back when it ends, so a capacity
// search that runs hundreds of probes reuses one set of buffers
// instead of allocating and collecting a set per probe — the paper's
// preallocated-pool argument (Table 2) applied to the simulator itself.
//
// An arena is owned by one run at a time. Nothing that outlives the
// run may point into it: the Result, its step profiles and trace, and
// the step labels are allocated fresh, and the network stays the
// caller's. Everything an arena holds is overwritten by the next
// lowering and bind, so no state leaks from one run into the next.
type runArena struct {
	prog  program.Program
	live  liveness.Result
	rplan recompute.Plan
	uplan utp.Plan

	steps       []StepProfile
	ts          []tstate
	owner       []int
	dropAt      [][]int
	segReplayed []bool

	gpu   gpumem.Pool
	hosts []*gpumem.Pool
	cache tcache.Cache
}

// arenas recycles run arenas across runs and goroutines.
var arenas = sync.Pool{New: func() any { return new(runArena) }}

// lower lowers net into the arena's program under cfg's lowering
// options, replacing the program lowered before.
func (a *runArena) lower(net *nnet.Net, cfg Config) *program.Program {
	return program.BuildInto(&a.prog, net, program.Options{InPlaceAct: cfg.InPlaceAct})
}
