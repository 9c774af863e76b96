// Package tensor defines the fundamental scheduling unit of the
// SuperNeurons runtime: the 4-dimensional NCHW tensor (§3.1 of the
// paper). Tensors here carry geometry and identity only — the
// simulator schedules byte extents, never touches element values,
// because the paper's contribution is a memory scheduler and every
// decision it makes depends only on tensor sizes and dependencies.
package tensor

import (
	"fmt"
	"slices"
)

// ElemSize is the byte width of a single element. Training in the paper
// is single-precision.
const ElemSize = 4

// Shape is an NCHW tensor geometry: batches, channels, height, width.
// Fully-connected activations use H = W = 1.
type Shape struct {
	N, C, H, W int
}

// Elems returns the number of elements in the shape.
func (s Shape) Elems() int64 {
	return int64(s.N) * int64(s.C) * int64(s.H) * int64(s.W)
}

// Bytes returns the storage footprint of the shape in bytes.
func (s Shape) Bytes() int64 { return s.Elems() * ElemSize }

// Valid reports whether all dimensions are positive.
func (s Shape) Valid() bool { return s.N > 0 && s.C > 0 && s.H > 0 && s.W > 0 }

// String renders the shape as NxCxHxW.
func (s Shape) String() string {
	return fmt.Sprintf("%dx%dx%dx%d", s.N, s.C, s.H, s.W)
}

// Vec returns a shape for a flat per-sample vector (FC activations).
func Vec(n, c int) Shape { return Shape{N: n, C: c, H: 1, W: 1} }

// Kind classifies what a tensor holds. The runtime prioritizes
// functional tensors (data, gradients, parameters) over convolution
// workspaces (§3.5).
type Kind uint8

// Tensor kinds.
const (
	Data      Kind = iota // forward activations
	Grad                  // backward data gradients
	Param                 // layer weights/biases (persistent)
	ParamGrad             // parameter gradients (persistent)
	Workspace             // convolution scratch space
	Aux                   // per-layer auxiliary state (BN statistics, dropout masks)
)

var kindNames = [...]string{"data", "grad", "param", "param-grad", "workspace", "aux"}

// String returns the kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", uint8(k))
}

// Tensor is a schedulable memory extent. Where its bytes live is run
// state owned by the executing runtime (core's per-tensor tstate);
// the graph structure (who produces and consumes it) lives in
// internal/nnet.
type Tensor struct {
	ID    int
	Name  string
	Shape Shape
	Kind  Kind

	// Locked marks the tensor as pinned by an in-flight computation so
	// the LRU tensor cache may not evict it (Alg. 2 of the paper).
	Locked bool
}

// Bytes returns the tensor's storage footprint.
func (t *Tensor) Bytes() int64 { return t.Shape.Bytes() }

// String renders a compact description.
func (t *Tensor) String() string {
	return fmt.Sprintf("t%d[%s %s %s]", t.ID, t.Name, t.Kind, t.Shape)
}

// Registry creates tensors with unique IDs. The zero value is ready to
// use.
type Registry struct {
	tensors []*Tensor
	// slab holds the room Grow reserved: New carves tensors from it
	// while it has capacity left. It is never appended past its
	// capacity, so the pointers New hands out stay stable.
	slab []Tensor
}

// Grow reserves room for n more tensors, so the next n calls to New
// share one allocation instead of making one each. Room left in the
// slab from an earlier Grow or Reset is used first.
func (r *Registry) Grow(n int) {
	if cap(r.slab)-len(r.slab) < n {
		r.slab = make([]Tensor, 0, n)
	}
	r.tensors = slices.Grow(r.tensors, n)
}

// Reset empties the registry and keeps its storage for the next
// lowering: New overwrites the tensors handed out before, so none of
// them may be used after a Reset.
func (r *Registry) Reset() {
	r.tensors = r.tensors[:0]
	r.slab = r.slab[:0]
}

// New registers a tensor of the given kind and shape.
func (r *Registry) New(name string, k Kind, s Shape) *Tensor {
	if !s.Valid() {
		panic(fmt.Sprintf("tensor: invalid shape %v for %q", s, name))
	}
	var t *Tensor
	if len(r.slab) < cap(r.slab) {
		r.slab = r.slab[:len(r.slab)+1]
		t = &r.slab[len(r.slab)-1]
	} else {
		t = new(Tensor)
	}
	*t = Tensor{ID: len(r.tensors), Name: name, Shape: s, Kind: k}
	r.tensors = append(r.tensors, t)
	return t
}

// All returns every registered tensor in creation (ID) order.
func (r *Registry) All() []*Tensor { return r.tensors }

// Len returns the number of registered tensors.
func (r *Registry) Len() int { return len(r.tensors) }

// Get returns the tensor with the given ID.
func (r *Registry) Get(id int) *Tensor { return r.tensors[id] }

// TotalBytes sums the footprint of all registered tensors of the given
// kinds (or all tensors when kinds is empty).
func (r *Registry) TotalBytes(kinds ...Kind) int64 {
	var want uint64 // bit k set: count kind k (kinds are few and small)
	for _, k := range kinds {
		want |= 1 << k
	}
	var sum int64
	for _, t := range r.tensors {
		if len(kinds) == 0 || want&(1<<t.Kind) != 0 {
			sum += t.Bytes()
		}
	}
	return sum
}
