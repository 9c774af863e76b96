// Package layers models the cuDNN layer zoo the SuperNeurons runtime
// schedules: geometry, parameter/auxiliary footprints, roofline work
// estimates, and the per-layer facts the memory planners depend on
// (which layers are checkpoints, which gradients are computed in place,
// which forward tensors a backward pass consumes).
//
// The paper's scheduling decisions rest on two empirical observations
// (its Fig. 8): CONV/FC dominate *time* while POOL/ACT/LRN/BN dominate
// *memory*. Both fall out of this package's cost model — convolutions
// are compute-roof bound, the wide cheap layers are bandwidth-roof
// bound — so the runtime faces the same trade-offs as on real hardware.
package layers

import (
	"fmt"

	"repro/internal/hw"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Type enumerates the basic building layers of §2.1.
type Type uint8

// Layer types.
const (
	Data Type = iota
	Conv
	Pool
	Act // ReLU
	LRN
	BN
	FC
	Dropout
	Softmax
	Concat  // fan-join by channel concatenation (Inception, DenseNet)
	Eltwise // element-wise sum join (ResNet)
)

var typeNames = [...]string{
	"DATA", "CONV", "POOL", "ACT", "LRN", "BN", "FC",
	"DROPOUT", "SOFTMAX", "CONCAT", "ELTWISE",
}

// String returns the canonical upper-case layer-type name used in the
// paper's figures.
func (t Type) String() string {
	if int(t) < len(typeNames) {
		return typeNames[t]
	}
	return fmt.Sprintf("TYPE(%d)", uint8(t))
}

// Spec is a fully-resolved layer instance: type, geometry, and derived
// output shape. Specs are immutable after construction, except that
// nnet's Net.Rebatch rewrites the batch dimension N of In and Out.
type Spec struct {
	Type Type
	Name string

	// In holds the input shapes (several for Concat/Eltwise).
	In []tensor.Shape
	// Out is the output shape.
	Out tensor.Shape

	// Convolution / pooling geometry. K and Pad govern the height
	// axis; KW and PadW the width axis (rectangular kernels such as
	// Inception's 1×7 / 7×1 factorizations). Square constructors set
	// KW = K and PadW = Pad.
	K      int // kernel height
	KW     int // kernel width
	Stride int
	Pad    int // height padding
	PadW   int // width padding
	OutC   int // conv output channels or FC output features
	// Groups partitions a convolution's channels (AlexNet's two-GPU
	// heritage); 0 means 1. Grouping divides parameters and FLOPs,
	// not activation footprints.
	Groups int
	Avg    bool // average (vs max) pooling
}

func (s *Spec) groups() int64 {
	if s.Groups > 1 {
		return int64(s.Groups)
	}
	return 1
}

func outDim(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

// NewData returns the input layer producing one batch of the given
// shape.
func NewData(name string, s tensor.Shape) Spec {
	return Spec{Type: Data, Name: name, Out: s}
}

// NewConv returns a convolution layer: outC filters of size k×k with
// the given stride and padding.
func NewConv(name string, in tensor.Shape, outC, k, stride, pad int) Spec {
	return NewConvRect(name, in, outC, k, k, stride, pad, pad)
}

// NewConvGrouped returns a grouped convolution (AlexNet's conv2/4/5).
func NewConvGrouped(name string, in tensor.Shape, outC, k, stride, pad, groups int) Spec {
	s := NewConv(name, in, outC, k, stride, pad)
	if groups < 1 || in.C%groups != 0 || outC%groups != 0 {
		panic(fmt.Sprintf("layers: conv %q: invalid group count %d", name, groups))
	}
	s.Groups = groups
	return s
}

// NewConvRect returns a convolution with a rectangular kh×kw kernel
// (Inception's 1×7 / 7×1 factorizations).
func NewConvRect(name string, in tensor.Shape, outC, kh, kw, stride, padH, padW int) Spec {
	oh := outDim(in.H, kh, stride, padH)
	ow := outDim(in.W, kw, stride, padW)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("layers: conv %q collapses %v to %dx%d", name, in, oh, ow))
	}
	return Spec{
		Type: Conv, Name: name, In: []tensor.Shape{in},
		Out: tensor.Shape{N: in.N, C: outC, H: oh, W: ow},
		K:   kh, KW: kw, Stride: stride, Pad: padH, PadW: padW, OutC: outC,
	}
}

// NewPool returns a pooling layer (max by default, average when avg).
func NewPool(name string, in tensor.Shape, k, stride, pad int, avg bool) Spec {
	oh := outDim(in.H, k, stride, pad)
	ow := outDim(in.W, k, stride, pad)
	if oh <= 0 || ow <= 0 {
		panic(fmt.Sprintf("layers: pool %q collapses %v", name, in))
	}
	return Spec{
		Type: Pool, Name: name, In: []tensor.Shape{in},
		Out: tensor.Shape{N: in.N, C: in.C, H: oh, W: ow},
		K:   k, KW: k, Stride: stride, Pad: pad, PadW: pad, Avg: avg,
	}
}

// NewGlobalPool returns an average pool that collapses the spatial
// dimensions to 1×1.
func NewGlobalPool(name string, in tensor.Shape) Spec {
	s := NewPool(name, in, in.H, 1, 0, true)
	s.KW = in.W
	s.Out.W = 1
	return s
}

// NewAct returns a ReLU activation.
func NewAct(name string, in tensor.Shape) Spec {
	return Spec{Type: Act, Name: name, In: []tensor.Shape{in}, Out: in}
}

// NewLRN returns a local response normalization layer.
func NewLRN(name string, in tensor.Shape) Spec {
	return Spec{Type: LRN, Name: name, In: []tensor.Shape{in}, Out: in, K: 5}
}

// NewBN returns a batch normalization layer.
func NewBN(name string, in tensor.Shape) Spec {
	return Spec{Type: BN, Name: name, In: []tensor.Shape{in}, Out: in}
}

// NewFC returns a fully-connected layer with outC output features; the
// input is flattened.
func NewFC(name string, in tensor.Shape, outC int) Spec {
	return Spec{
		Type: FC, Name: name, In: []tensor.Shape{in},
		Out:  tensor.Vec(in.N, outC),
		OutC: outC,
	}
}

// NewDropout returns a dropout layer.
func NewDropout(name string, in tensor.Shape) Spec {
	return Spec{Type: Dropout, Name: name, In: []tensor.Shape{in}, Out: in}
}

// NewSoftmax returns a softmax-with-loss layer.
func NewSoftmax(name string, in tensor.Shape) Spec {
	return Spec{Type: Softmax, Name: name, In: []tensor.Shape{in}, Out: in}
}

// NewConcat returns a channel-concatenation join of the inputs, which
// must agree on N, H and W.
func NewConcat(name string, ins ...tensor.Shape) Spec {
	if len(ins) < 2 {
		panic("layers: concat needs at least two inputs")
	}
	out := ins[0]
	for _, s := range ins[1:] {
		if s.N != out.N || s.H != out.H || s.W != out.W {
			panic(fmt.Sprintf("layers: concat %q shape mismatch: %v vs %v", name, out, s))
		}
		out.C += s.C
	}
	return Spec{Type: Concat, Name: name, In: ins, Out: out}
}

// NewEltwise returns an element-wise sum join of identically-shaped
// inputs (the ResNet shortcut).
func NewEltwise(name string, ins ...tensor.Shape) Spec {
	if len(ins) < 2 {
		panic("layers: eltwise needs at least two inputs")
	}
	for _, s := range ins[1:] {
		if s != ins[0] {
			panic(fmt.Sprintf("layers: eltwise %q shape mismatch: %v vs %v", name, ins[0], s))
		}
	}
	return Spec{Type: Eltwise, Name: name, In: ins, Out: ins[0]}
}

// InBytes sums the input tensor footprints.
func (s *Spec) InBytes() int64 {
	var n int64
	for _, in := range s.In {
		n += in.Bytes()
	}
	return n
}

// OutBytes is the forward output footprint — the l_i^f of the paper's
// cost model.
func (s *Spec) OutBytes() int64 { return s.Out.Bytes() }

// ParamBytes returns the persistent parameter footprint (weights +
// biases, or BN scale/shift plus running statistics).
func (s *Spec) ParamBytes() int64 {
	switch s.Type {
	case Conv:
		cin := s.In[0].C
		return (int64(s.OutC)*int64(cin)*int64(s.K)*int64(s.KW)/s.groups() + int64(s.OutC)) * tensor.ElemSize
	case FC:
		cin := s.In[0].Elems() / int64(s.In[0].N)
		return (cin*int64(s.OutC) + int64(s.OutC)) * tensor.ElemSize
	case BN:
		// scale, shift, running mean, running variance.
		return 4 * int64(s.In[0].C) * tensor.ElemSize
	default:
		return 0
	}
}

// AuxBytes returns persistent per-layer auxiliary state: the cuDNN
// dropout reserve space and BN saved statistics. These live for the
// whole training run (like parameters), not per-iteration.
func (s *Spec) AuxBytes() int64 {
	switch s.Type {
	case Dropout:
		return s.Out.Bytes() // reserve space holding the mask
	case BN:
		return 2 * int64(s.In[0].C) * tensor.ElemSize // saved mean/invvar
	default:
		return 0
	}
}

// AllocatesDX reports whether the backward pass allocates a distinct
// input-gradient tensor. ReLU and Dropout compute gradients in place
// over dY; Concat/Eltwise backward hand out views/aliases of dY; the
// Data layer has no gradient.
func (s *Spec) AllocatesDX() bool {
	switch s.Type {
	case Data, Act, Dropout, Concat, Eltwise:
		return false
	default:
		return true
	}
}

// BwdNeeds reports which forward tensors the backward computation
// consumes, mirroring the cuDNN backward-kernel signatures: e.g.
// cudnnPoolingBackward takes (x, y, dy) while ReLU only needs (y, dy).
func (s *Spec) BwdNeeds() (needX, needY bool) {
	switch s.Type {
	case Conv:
		return true, false // x for wgrad; dx from w and dy
	case Pool:
		return true, true
	case Act:
		return true, true // cudnnActivationBackward(y, dy, x, dx)
	case LRN:
		return true, true
	case BN:
		return true, false // saved statistics replace y
	case FC:
		return true, false
	case Dropout:
		return false, false // mask lives in persistent reserve space
	case Softmax:
		return false, true
	default: // Data, Concat, Eltwise
		return false, false
	}
}

// IsCheckpoint reports whether the layer is a recomputation checkpoint:
// a compute-intensive layer whose output is kept (or offloaded) rather
// than recomputed (§3.3–3.4: CONV and FC; Data is a natural checkpoint
// since the input batch can always be re-read).
func (s *Spec) IsCheckpoint() bool {
	switch s.Type {
	case Conv, FC, Data:
		return true
	default:
		return false
	}
}

// IsOffloadable reports whether the Unified Tensor Pool offloads this
// layer's forward output to host memory (§3.3.1: only CONV outputs —
// POOL/ACT/BN/LRN have too little compute to hide the transfer behind,
// and Dropout/Softmax/FC tensors are too small to bother).
func (s *Spec) IsOffloadable() bool { return s.Type == Conv }

// rooflineEff holds the per-type fraction of peak a layer's kernels
// sustain before device scaling.
type rooflineEff struct{ compute, mem float64 }

// effTable is indexed by layer type; every Type has an entry.
var effTable = [...]rooflineEff{
	Data:    {0.9, 0.9},
	Conv:    {0.52, 0.70},
	Pool:    {0.08, 0.85},
	Act:     {0.10, 0.95},
	LRN:     {0.10, 0.45},
	BN:      {0.10, 0.60},
	FC:      {0.62, 0.85},
	Dropout: {0.10, 0.85},
	Softmax: {0.10, 0.60},
	Concat:  {0.10, 0.90},
	Eltwise: {0.10, 0.90},
}

// FwdFLOPs estimates forward floating-point work.
func (s *Spec) FwdFLOPs() float64 {
	switch s.Type {
	case Conv:
		cin := float64(s.In[0].C)
		return 2 * float64(s.Out.Elems()) * cin * float64(s.K) * float64(s.KW) / float64(s.groups())
	case FC:
		cin := float64(s.In[0].Elems() / int64(s.In[0].N))
		return 2 * float64(s.Out.Elems()) * cin
	case Pool:
		return float64(s.Out.Elems()) * float64(s.K) * float64(s.KW)
	case LRN:
		return float64(s.Out.Elems()) * float64(2*s.K+4)
	case BN:
		return float64(s.Out.Elems()) * 10
	case Softmax:
		return float64(s.Out.Elems()) * 6
	case Data:
		return 0
	default: // Act, Dropout, Concat, Eltwise
		return float64(s.Out.Elems()) * 2
	}
}

// BwdFLOPs estimates backward floating-point work. Convolutions and FC
// run both a data-gradient and a weight-gradient pass (≈2× forward);
// the cheap layers run a single elementwise pass.
func (s *Spec) BwdFLOPs() float64 {
	switch s.Type {
	case Conv, FC:
		return 2 * s.FwdFLOPs()
	case Data:
		return 0
	default:
		return s.FwdFLOPs()
	}
}

// FwdBytes estimates forward memory traffic: read inputs and
// parameters, write the output.
func (s *Spec) FwdBytes() int64 {
	return s.InBytes() + s.ParamBytes() + s.Out.Bytes()
}

// BwdBytes estimates backward memory traffic: read dY plus whatever
// forward tensors the kernel needs, write dX and parameter gradients.
func (s *Spec) BwdBytes() int64 {
	needX, needY := s.BwdNeeds()
	n := s.Out.Bytes() // read dY
	if needX {
		n += s.InBytes()
	}
	if needY {
		n += s.Out.Bytes()
	}
	n += s.InBytes()        // write dX (aliased or not, the bytes move)
	n += 2 * s.ParamBytes() // read params, write param gradients
	return n
}

// FwdTime returns the modeled forward duration on the device, given a
// convolution algorithm speed factor (1.0 for non-conv layers; see
// Algo.Speedup).
func (s *Spec) FwdTime(d hw.DeviceSpec, speedup float64) sim.Duration {
	return s.kernelTime(d, s.FwdFLOPs(), s.FwdBytes(), speedup)
}

// BwdTime returns the modeled backward duration on the device.
func (s *Spec) BwdTime(d hw.DeviceSpec, speedup float64) sim.Duration {
	if s.Type == Data {
		return 0
	}
	return s.kernelTime(d, s.BwdFLOPs(), s.BwdBytes(), speedup)
}

func (s *Spec) kernelTime(d hw.DeviceSpec, flops float64, bytes int64, speedup float64) sim.Duration {
	if speedup <= 0 {
		panic("layers: non-positive algorithm speedup")
	}
	eff := effTable[s.Type]
	ec := eff.compute * d.EffScale * speedup
	em := eff.mem * d.MemEffScale
	return d.KernelTime(flops, bytes, ec, em)
}

// String renders the spec compactly, e.g. "CONV conv1 3x227x227 -> 96x55x55 k11s4p0".
func (s *Spec) String() string {
	geo := ""
	switch s.Type {
	case Conv, Pool:
		if s.K == s.KW {
			geo = fmt.Sprintf(" k%ds%dp%d", s.K, s.Stride, s.Pad)
		} else {
			geo = fmt.Sprintf(" k%dx%ds%dp%dx%d", s.K, s.KW, s.Stride, s.Pad, s.PadW)
		}
	}
	if len(s.In) == 0 {
		return fmt.Sprintf("%s %s -> %v%s", s.Type, s.Name, s.Out, geo)
	}
	return fmt.Sprintf("%s %s %v -> %v%s", s.Type, s.Name, s.In[0], s.Out, geo)
}
