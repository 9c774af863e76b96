package core

import (
	"fmt"
	"slices"

	"repro/internal/program"
	"repro/internal/recompute"
	"repro/internal/tensor"
)

// Recomputation replays reconstruct dropped forward tensors segment by
// segment (§3.4), honoring each segment's resolved strategy:
// speed-centric segments replay once and keep the results,
// memory-centric segments replay the needed prefix with a streaming
// free behind the replay front.

// segNeed records how deep into a recompute segment one backward
// step's reads reach.
type segNeed struct {
	seg    *recompute.Segment
	maxPos int
}

// replayFor reconstructs the dropped forward tensors this backward
// step reads, segment by segment. It returns the tensors that must be
// freed right after the step (memory-centric replays).
func (rt *runState) replayFor(st *program.Step) ([]*tensor.Tensor, error) {
	rt.freeAfter = rt.freeAfter[:0]
	needs := rt.needs[:0]
	for _, t := range st.Reads {
		nd := rt.owner[t.ID]
		if nd < 0 || !rt.rplan.Drop[nd] || rt.ts[t.ID].onGPU {
			continue
		}
		seg := rt.rplan.SegmentOf[nd]
		if seg == nil {
			rt.needs = needs
			return nil, fmt.Errorf("dropped tensor %s has no segment", t)
		}
		pos := -1
		for i, m := range seg.Members {
			if m.ID == nd {
				pos = i
				break
			}
		}
		found := false
		for i := range needs {
			if needs[i].seg == seg {
				if pos > needs[i].maxPos {
					needs[i].maxPos = pos
				}
				found = true
			}
		}
		if !found {
			needs = append(needs, segNeed{seg: seg, maxPos: pos})
		}
	}
	rt.needs = needs
	for _, n := range needs {
		if !n.seg.UseMemoryCentric {
			// Speed-centric: replay the whole segment once; later
			// backward steps inside it reuse the results, which
			// liveness frees at their true last use.
			if rt.segReplayed[n.seg.ID] {
				continue
			}
			if err := rt.replayMembers(n.seg, len(n.seg.Members)-1, nil, nil); err != nil {
				return nil, err
			}
			rt.segReplayed[n.seg.ID] = true
		} else {
			// Memory-centric: replay only the needed prefix, freeing
			// the chain behind the replay front (streaming), and free
			// the rest immediately after this step.
			if err := rt.replayMembers(n.seg, n.maxPos, &rt.freeAfter, st.Reads); err != nil {
				return nil, err
			}
		}
	}
	return rt.freeAfter, nil
}

// replayMembers re-runs the forward of segment members [0..upTo],
// ensuring each replay's own inputs are resident first. In streaming
// (memory-centric) mode — freeAfter != nil — inputs behind the replay
// front are freed as soon as the next member has consumed them, unless
// the triggering step itself reads them (keep, its Reads), so the
// replay's transient footprint never exceeds two members plus the
// backward working set. A step reads a handful of tensors, so keep is
// scanned rather than indexed.
func (rt *runState) replayMembers(seg *recompute.Segment, upTo int, freeAfter *[]*tensor.Tensor, keep []*tensor.Tensor) error {
	for i := 0; i <= upTo; i++ {
		m := seg.Members[i]
		out := rt.p.Out[m.ID]
		if rt.ts[out.ID].onGPU {
			continue
		}
		deps := rt.deps[:0]
		for _, pr := range m.Prev {
			in := rt.p.Out[pr.ID]
			s := &rt.ts[in.ID]
			if !s.onGPU {
				if !s.onHost {
					return fmt.Errorf("replay of %s: input %s unavailable", m.Name(), in)
				}
				if err := rt.fetch(in); err != nil {
					return err
				}
			}
			if s.inflightValid {
				deps = append(deps, s.inflight)
			}
			in.Locked = true
		}
		rt.deps = deps
		// An in-place member (InPlaceAct) writes over its input, which
		// the loop above has just made resident: nothing to allocate.
		if !rt.ts[out.ID].onGPU {
			if err := rt.alloc(out); err != nil {
				return err
			}
			if rt.cache != nil {
				rt.cache.In(out)
			}
		}
		dur := m.L.FwdTime(rt.cfg.Device, 1.0)
		ev := rt.compute.Submit(rt.tl.Now(), dur, deps...)
		rt.spanFor("compute", "replay", m.Name(), "", ev, dur)
		rt.tl.Wait(ev)
		rt.res.ExtraForwards++
		for _, pr := range m.Prev {
			in := rt.p.Out[pr.ID]
			in.Locked = false
			if freeAfter == nil || in == out || slices.Contains(keep, in) {
				continue
			}
			// Streaming free: the input is recoverable either from its
			// host copy or by another replay (dropped member).
			s := &rt.ts[in.ID]
			recoverable := s.onHost || (rt.owner[in.ID] >= 0 && rt.rplan.Drop[rt.owner[in.ID]])
			if s.onGPU && recoverable {
				rt.freeGPU(in)
			}
		}
		if freeAfter != nil {
			*freeAfter = append(*freeAfter, out)
		}
	}
	return nil
}
