// Package liveness implements the data-flow analysis of §3.2: it
// tracks, for every tensor, the in/out live sets across the execution
// steps of one training iteration, so the runtime can recycle a
// tensor's memory the moment no subsequent step depends on it.
//
// Analyze runs in O(total accesses) with a single reverse sweep; the
// paper describes the equivalent O(N²) subsequent-layer scan, which is
// kept as Reference for cross-validation in tests.
package liveness

import (
	"slices"

	"repro/internal/program"
	"repro/internal/tensor"
)

// Result holds the per-tensor lifetime facts and the per-step free
// lists derived from them.
type Result struct {
	// FirstUse[id] is the first step that touches tensor id (its
	// creation point); -1 if the tensor never appears.
	FirstUse []int
	// LastUse[id] is the last step that touches tensor id; -1 if never.
	LastUse []int
	// FreeAfter[step] lists tensor IDs whose final use is that step —
	// the tensors Liveness Analysis recycles right after it.
	FreeAfter [][]int

	// off and flat back FreeAfter: step i's list is
	// flat[off[i]:off[i+1]].
	off, flat []int
}

// Analyze computes tensor lifetimes for the program.
func Analyze(p *program.Program) *Result { return AnalyzeInto(new(Result), p) }

// AnalyzeInto computes tensor lifetimes for the program into r,
// reusing the arrays of whatever r held before; a zero Result is the
// empty case. The previous analysis is overwritten.
func AnalyzeInto(r *Result, p *program.Program) *Result {
	n, steps := p.Reg.Len(), len(p.Steps)
	r.FirstUse = slices.Grow(r.FirstUse[:0], n)[:n]
	r.LastUse = slices.Grow(r.LastUse[:0], n)[:n]
	r.FreeAfter = slices.Grow(r.FreeAfter[:0], steps)[:steps]
	clear(r.FreeAfter)
	for i := range r.FirstUse {
		r.FirstUse[i] = -1
		r.LastUse[i] = -1
	}
	var scratch []*tensor.Tensor
	for si := range p.Steps {
		scratch = program.AppendStepTensors(scratch[:0], &p.Steps[si])
		for _, t := range scratch {
			if r.FirstUse[t.ID] < 0 {
				r.FirstUse[t.ID] = si
			}
			r.LastUse[t.ID] = si
		}
	}
	// All free lists share one backing array: count each step's frees,
	// then give step i the capped range flat[off[i]:off[i]:off[i+1]] so
	// its appends stay inside its own range.
	off := slices.Grow(r.off[:0], steps+1)[:steps+1]
	clear(off)
	for _, last := range r.LastUse {
		if last >= 0 {
			off[last+1]++
		}
	}
	for i := 1; i < len(off); i++ {
		off[i] += off[i-1]
	}
	flat := slices.Grow(r.flat[:0], off[steps])[:off[steps]]
	r.off, r.flat = off, flat
	for i := range r.FreeAfter {
		if off[i] < off[i+1] {
			r.FreeAfter[i] = flat[off[i]:off[i]:off[i+1]]
		}
	}
	for id, last := range r.LastUse {
		if last >= 0 {
			r.FreeAfter[last] = append(r.FreeAfter[last], id)
		}
	}
	return r
}

// LiveAt returns the IDs of tensors live during step si (created at or
// before si, last used at or after si), in ID order. This materializes
// the paper's in-set for the step.
func (r *Result) LiveAt(si int) []int {
	var ids []int
	for id := range r.FirstUse {
		if r.FirstUse[id] >= 0 && r.FirstUse[id] <= si && r.LastUse[id] >= si {
			ids = append(ids, id)
		}
	}
	return ids
}

// LiveBytesAt sums the footprint of tensors live during step si.
func (r *Result) LiveBytesAt(p *program.Program, si int) int64 {
	var sum int64
	for _, id := range r.LiveAt(si) {
		sum += p.Reg.Get(id).Bytes()
	}
	return sum
}

// PeakLive returns the maximum live bytes over all steps and the step
// where it occurs — the Σ_{i≤k} l_i^f + l_k^b peak the paper derives
// for Liveness Analysis alone.
func (r *Result) PeakLive(p *program.Program) (bytes int64, step int) {
	for si := range p.Steps {
		if b := r.LiveBytesAt(p, si); b > bytes {
			bytes, step = b, si
		}
	}
	return bytes, step
}

// Reference recomputes last-use with the paper's O(N²) construction:
// for each step, scan all subsequent steps for another use of each
// tensor; if none exists the tensor dies here. Used by tests to verify
// Analyze.
func Reference(p *program.Program) *Result {
	n := p.Reg.Len()
	r := &Result{
		FirstUse:  make([]int, n),
		LastUse:   make([]int, n),
		FreeAfter: make([][]int, len(p.Steps)),
	}
	for i := range r.FirstUse {
		r.FirstUse[i] = -1
		r.LastUse[i] = -1
	}
	uses := func(si int, id int) bool {
		for _, t := range program.StepTensors(&p.Steps[si]) {
			if t.ID == id {
				return true
			}
		}
		return false
	}
	for si := range p.Steps {
		for _, t := range program.StepTensors(&p.Steps[si]) {
			if r.FirstUse[t.ID] < 0 {
				r.FirstUse[t.ID] = si
			}
			needed := false
			for sj := si + 1; sj < len(p.Steps); sj++ {
				if uses(sj, t.ID) {
					needed = true
					break
				}
			}
			if !needed && r.LastUse[t.ID] < 0 {
				r.LastUse[t.ID] = si
				r.FreeAfter[si] = append(r.FreeAfter[si], t.ID)
			}
		}
	}
	return r
}
