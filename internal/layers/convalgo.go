package layers

import (
	"fmt"

	"repro/internal/tensor"
)

// AlgoKind enumerates the cuDNN convolution algorithm families the
// runtime chooses between (§3.5 of the paper).
type AlgoKind uint8

// Convolution algorithm kinds.
const (
	// AlgoImplicitGEMM performs the convolution without materializing
	// the lowered matrix: zero workspace, baseline speed.
	AlgoImplicitGEMM AlgoKind = iota
	// AlgoGEMM lowers the input with im2col into a workspace and runs
	// one large matrix multiply; faster, workspace ≈ the whole lowered
	// batch.
	AlgoGEMM
	// AlgoFFT convolves in the frequency domain; fastest for large
	// kernels at stride 1, with large padded-spectrum workspaces.
	AlgoFFT
	// AlgoWinograd uses Winograd minimal filtering for 3×3 stride-1
	// kernels; large speedup with a moderate tile-transform workspace.
	AlgoWinograd
)

var algoNames = [...]string{"implicit-gemm", "gemm", "fft", "winograd"}

// String returns the algorithm name.
func (k AlgoKind) String() string {
	if int(k) < len(algoNames) {
		return algoNames[k]
	}
	return fmt.Sprintf("algo(%d)", uint8(k))
}

// Algo describes one executable choice for a convolution layer: its
// workspace requirement and its speed relative to implicit GEMM. The
// runtime picks the fastest algorithm whose workspace fits the free
// bytes remaining at that step (§3.5).
type Algo struct {
	Kind      AlgoKind
	Workspace int64   // scratch bytes needed in GPU DRAM
	Speedup   float64 // compute-efficiency multiplier vs implicit GEMM
}

// convAlgoSet returns the algorithms available for this convolution,
// ordered from slowest to fastest, in a fixed-size array — at most one
// per AlgoKind — so per-step algorithm selection in the executor's hot
// loop allocates nothing. It panics on non-conv layers.
//
// Availability mirrors cuDNN:
//   - implicit GEMM: always, zero workspace;
//   - GEMM: always, workspace = lowered im2col batch
//     (N·C·K²·outH·outW floats);
//   - Winograd: 3×3 stride-1 kernels, workspace ≈ 2.25× the layer's
//     activation footprint (input+output tile transforms);
//   - FFT: stride-1 kernels of size ≥5, workspace = padded complex
//     spectra of input, output and filters.
func (s *Spec) convAlgoSet() (set [4]Algo, n int) {
	if s.Type != Conv {
		panic("layers: conv algorithms of a non-conv layer")
	}
	in := s.In[0]
	set[0] = Algo{Kind: AlgoImplicitGEMM, Workspace: 0, Speedup: 1.0}
	n = 1

	im2col := int64(in.N) * int64(in.C) * int64(s.K) * int64(s.KW) *
		int64(s.Out.H) * int64(s.Out.W) * tensor.ElemSize
	set[n] = Algo{Kind: AlgoGEMM, Workspace: im2col, Speedup: 1.25}
	n++

	if s.K >= 5 && s.KW >= 5 && s.Stride == 1 {
		// Complex spectra (8 bytes/coeff) for input maps, output maps
		// and filters over the padded spatial extent.
		hp, wp := int64(in.H+2*s.Pad), int64(in.W+2*s.PadW)
		spec := 8 * hp * wp * (int64(in.N)*int64(in.C) +
			int64(in.N)*int64(s.OutC) + int64(in.C)*int64(s.OutC))
		set[n] = Algo{Kind: AlgoFFT, Workspace: spec, Speedup: 1.6}
		n++
	}
	if s.K == 3 && s.KW == 3 && s.Stride == 1 {
		ws := int64(2.25 * float64(in.Bytes()+s.Out.Bytes()))
		set[n] = Algo{Kind: AlgoWinograd, Workspace: ws, Speedup: 2.0}
		n++
	}
	return set, n
}

// BestAlgoWithin returns the fastest algorithm whose workspace fits
// within budget bytes. The zero-workspace implicit GEMM always fits, so
// an algorithm is always returned (the paper: "the runtime skips
// convolution algorithms that require more memory than it can
// provide").
func (s *Spec) BestAlgoWithin(budget int64) Algo {
	best := Algo{Kind: AlgoImplicitGEMM, Speedup: 1.0}
	set, n := s.convAlgoSet()
	for _, a := range set[:n] {
		if a.Workspace <= budget && a.Speedup > best.Speedup {
			best = a
		}
	}
	return best
}

// MaxSpeedAlgo returns the fastest algorithm regardless of workspace —
// the "MAX Speed WS" series of the paper's Fig. 12.
func (s *Spec) MaxSpeedAlgo() Algo {
	return s.BestAlgoWithin(1 << 62)
}
