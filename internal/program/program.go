// Package program lowers a network graph into the tensor-level
// execution program the SuperNeurons planners operate on: one forward
// step per layer in route order, one backward step per layer in reverse
// order, each annotated with the tensors it reads and writes.
//
// The lowering encodes the memory behaviour of a cuDNN-based trainer:
//
//   - every layer's forward allocates its output tensor;
//   - CONV/POOL/LRN/BN/FC/Softmax backward allocates a distinct input
//     gradient (dX), while ReLU/Dropout compute gradients in place over
//     dY and Concat/Eltwise hand out views of dY — so their "dX" aliases
//     the gradient tensor of their own output;
//   - a layer whose output feeds several consumers has its output
//     gradient accumulated into the first consumer's buffer (no extra
//     allocation);
//   - each backward step additionally reads the forward tensors its
//     kernel signature demands (layers.Spec.BwdNeeds).
//
// From the per-step working sets the package derives max(l_i) — the
// paper's l_peak, the smallest peak memory any layer-wise schedule can
// achieve and the floor Cost-Aware Recomputation reaches.
package program

import (
	"fmt"
	"strings"

	"repro/internal/layers"
	"repro/internal/nnet"
	"repro/internal/tensor"
)

// Phase distinguishes forward from backward steps.
type Phase uint8

// Phases.
const (
	Forward Phase = iota
	Backward
)

// String returns "fwd" or "bwd".
func (p Phase) String() string {
	if p == Forward {
		return "fwd"
	}
	return "bwd"
}

// Step is one schedulable unit: a layer execution in one phase.
type Step struct {
	Index int
	Node  *nnet.Node
	Phase Phase

	// Reads lists tensors that must be GPU-resident throughout the
	// step; Writes lists tensors the step creates or updates. A tensor
	// appearing in both (in-place gradient) is listed once in each.
	Reads  []*tensor.Tensor
	Writes []*tensor.Tensor

	// label caches Label()'s result: the step loop asks for it on every
	// step of every iteration, so it is rendered once at lowering.
	label string
}

// Label renders e.g. "conv1 fwd" for profiles. Steps built by the
// lowering carry a precomputed label; hand-rolled test steps fall back
// to rendering on demand.
func (s *Step) Label() string {
	if s.label != "" {
		return s.label
	}
	return fmt.Sprintf("%s %s", s.Node.Name(), s.Phase)
}

// Program is the lowered execution plan for one training iteration.
type Program struct {
	Net   *nnet.Net
	Reg   *tensor.Registry
	Steps []Step

	// Out[nodeID] is the node's forward output tensor; DX[nodeID] is
	// its allocated input-gradient tensor (nil for in-place layers);
	// GradOut[nodeID] is the resolved tensor holding the gradient with
	// respect to the node's output (nil for the loss layer).
	Out     []*tensor.Tensor
	DX      []*tensor.Tensor
	GradOut []*tensor.Tensor

	// FwdStep/BwdStep map node IDs to step indices (BwdStep is -1 for
	// the data layer, which has no backward).
	FwdStep []int
	BwdStep []int

	// PersistentBytes covers parameters, parameter gradients and
	// auxiliary state (dropout reserves, BN statistics): resident for
	// the whole run, untouched by the per-iteration schedulers.
	PersistentBytes int64
}

// Options tunes the lowering.
type Options struct {
	// InPlaceAct makes ReLU and Dropout forwards operate in place,
	// sharing the producer's buffer (Torch's nn.ReLU(true) / Caffe's
	// in-place layers). Applied only when the producer has a single
	// consumer, where it is always safe.
	InPlaceAct bool
}

// Build lowers the network with default options.
func Build(net *nnet.Net) *Program { return BuildWith(net, Options{}) }

// BuildWith lowers the network. Every per-layer object lives in one of
// a fixed number of backing arrays, so a lowering makes the same number
// of allocations at any depth: tensors in the registry's slab, every
// step's Reads and Writes in one arena, and every tensor name and step
// label in one string buffer.
func BuildWith(net *nnet.Net, opts Options) *Program {
	n := len(net.Nodes)
	p := &Program{
		Net:     net,
		Reg:     &tensor.Registry{},
		Steps:   make([]Step, 0, 2*n),
		Out:     make([]*tensor.Tensor, n),
		DX:      make([]*tensor.Tensor, n),
		GradOut: make([]*tensor.Tensor, n),
		FwdStep: make([]int, n),
		BwdStep: make([]int, n),
	}

	route := net.Route()

	// Size the tensor slab, the name buffer and the access arena up
	// front. The arena bound counts a backward step as its gradient
	// read, its input reads, its output read and one write.
	tensors, nameBytes, accesses := 0, 0, 0
	for _, nd := range route {
		name := len(nd.Name())
		nameBytes += name + len(" fwd")
		accesses += len(nd.Prev) + 1
		if !(opts.InPlaceAct && inPlaceEligible(nd)) {
			tensors++
			nameBytes += name + len(".y")
		}
		if nd.L.AllocatesDX() {
			tensors++
			nameBytes += name + len(".dx")
		}
		if len(nd.Prev) > 0 {
			nameBytes += name + len(" bwd")
			accesses += len(nd.Prev) + 3
		}
	}
	p.Reg.Grow(tensors)
	var names strings.Builder
	names.Grow(nameBytes)
	// join returns a+b as a substring of the shared buffer. Strings
	// already returned stay valid even if the buffer has to grow.
	join := func(a, b string) string {
		from := names.Len()
		names.WriteString(a)
		names.WriteString(b)
		return names.String()[from:]
	}
	arena := make([]*tensor.Tensor, 0, accesses)
	// carve returns the arena entries appended since from, capped so an
	// append by any caller reallocates instead of overwriting the next
	// step's entries.
	carve := func(from int) []*tensor.Tensor {
		if len(arena) == from {
			return nil
		}
		return arena[from:len(arena):len(arena)]
	}

	// Create forward outputs in route order so tensor IDs follow
	// execution order (matches the paper's t0, t1, ... numbering).
	for _, nd := range route {
		if opts.InPlaceAct && inPlaceEligible(nd) {
			p.Out[nd.ID] = p.Out[nd.Prev[0].ID]
			continue
		}
		p.Out[nd.ID] = p.Reg.New(join(nd.Name(), ".y"), tensor.Data, nd.L.Out)
	}
	// Create dX tensors in backward order, resolving output-gradient
	// aliases in the same pass: the gradient with respect to a node's
	// output lives in the dX buffer of its first consumer, or, when that
	// consumer computes in place or hands out views, wherever the
	// consumer's own output gradient lives. The route is topological, so
	// the consumer is resolved before the node.
	for i := len(route) - 1; i >= 0; i-- {
		nd := route[i]
		if nd.L.AllocatesDX() {
			// dX matches the (first) input shape; for multi-input
			// layers that allocate (none today) this would extend.
			p.DX[nd.ID] = p.Reg.New(join(nd.Name(), ".dx"), tensor.Grad, nd.L.In[0])
		}
		if len(nd.Next) > 0 { // the loss layer's gradient originates there
			c := nd.Next[0]
			if p.GradOut[nd.ID] = p.DX[c.ID]; p.GradOut[nd.ID] == nil {
				p.GradOut[nd.ID] = p.GradOut[c.ID]
			}
		}
	}

	// Persistent state: parameters, parameter gradients, aux.
	p.PersistentBytes = 2*net.ParamBytes() + net.AuxBytes()

	// Forward steps.
	for _, nd := range route {
		st := Step{Index: len(p.Steps), Node: nd, Phase: Forward, label: join(nd.Name(), " fwd")}
		from := len(arena)
		for _, pr := range nd.Prev {
			arena = append(arena, p.Out[pr.ID])
		}
		st.Reads = carve(from)
		from = len(arena)
		arena = append(arena, p.Out[nd.ID])
		st.Writes = carve(from)
		p.FwdStep[nd.ID] = st.Index
		p.Steps = append(p.Steps, st)
	}
	// Backward steps in reverse route order; the data layer has none.
	for i := range p.BwdStep {
		p.BwdStep[i] = -1
	}
	for i := len(route) - 1; i >= 0; i-- {
		nd := route[i]
		if len(nd.Prev) == 0 {
			continue
		}
		st := Step{Index: len(p.Steps), Node: nd, Phase: Backward, label: join(nd.Name(), " bwd")}
		from := len(arena)
		if g := p.GradOut[nd.ID]; g != nil {
			arena = append(arena, g)
		}
		needX, needY := nd.L.BwdNeeds()
		if needX {
			for _, pr := range nd.Prev {
				arena = append(arena, p.Out[pr.ID])
			}
		}
		if needY {
			arena = append(arena, p.Out[nd.ID])
		}
		st.Reads = carve(from)
		from = len(arena)
		if dx := p.DX[nd.ID]; dx != nil {
			arena = append(arena, dx)
		} else if g := p.GradOut[nd.ID]; g != nil {
			// In-place: the step updates the aliased gradient buffer.
			arena = append(arena, g)
		}
		st.Writes = carve(from)
		p.BwdStep[nd.ID] = st.Index
		p.Steps = append(p.Steps, st)
	}
	return p
}

// inPlaceEligible reports whether a node may share its producer's
// buffer: an activation or dropout whose single input feeds only it.
func inPlaceEligible(nd *nnet.Node) bool {
	if len(nd.Prev) != 1 || len(nd.Prev[0].Next) != 1 {
		return false
	}
	switch nd.L.Type {
	case layers.Act, layers.Dropout:
		return true
	}
	return false
}

// StepTensors returns the deduplicated union of a step's reads and
// writes — the tensors that must coexist on the GPU for the step.
func StepTensors(st *Step) []*tensor.Tensor {
	return AppendStepTensors(nil, st)
}

// AppendStepTensors appends the step's distinct tensors to dst and
// returns the extended slice, deduplicating against everything already
// in dst. Callers on hot paths pass a reused scratch buffer (dst[:0])
// so per-step analysis does no allocation; the read/write lists are a
// handful of entries, so the linear dedup scan beats a map.
func AppendStepTensors(dst []*tensor.Tensor, st *Step) []*tensor.Tensor {
	for _, lists := range [2][]*tensor.Tensor{st.Reads, st.Writes} {
		for _, t := range lists {
			if !containsID(dst, t.ID) {
				dst = append(dst, t)
			}
		}
	}
	return dst
}

// WorkingSet returns the bytes that must coexist for step i — the
// paper's per-layer memory usage l_i (forward or backward flavor). It
// computes the deduplicated union inline, without materializing it.
func (p *Program) WorkingSet(i int) int64 {
	st := &p.Steps[i]
	var sum int64
	for ri, t := range st.Reads {
		if !containsID(st.Reads[:ri], t.ID) {
			sum += t.Bytes()
		}
	}
	for wi, t := range st.Writes {
		if !containsID(st.Reads, t.ID) && !containsID(st.Writes[:wi], t.ID) {
			sum += t.Bytes()
		}
	}
	return sum
}

func containsID(ts []*tensor.Tensor, id int) bool {
	for _, t := range ts {
		if t.ID == id {
			return true
		}
	}
	return false
}

// LPeak returns max(l_i) over all steps: the layer-wise lower bound on
// peak memory that Cost-Aware Recomputation attains.
func (p *Program) LPeak() (bytes int64, step int) {
	for i := range p.Steps {
		if ws := p.WorkingSet(i); ws > bytes {
			bytes, step = ws, i
		}
	}
	return bytes, step
}

// BaselineBytes returns the naive allocation footprint Σ l_i^f + Σ l_i^b:
// every forward output plus every gradient tensor live at once.
func (p *Program) BaselineBytes() int64 {
	return p.Reg.TotalBytes(tensor.Data, tensor.Grad)
}

// NumSteps returns the step count of one iteration.
func (p *Program) NumSteps() int { return len(p.Steps) }
