package memmgr

import (
	"fmt"

	"repro/internal/program"
	"repro/internal/recompute"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// StdReplayer reconstructs dropped forward tensors segment by segment
// (§3.4), honoring each segment's resolved strategy: speed-centric
// segments replay once and keep the results, memory-centric segments
// replay the needed prefix with a streaming free behind the replay
// front.
type StdReplayer struct {
	rt    *Runtime
	resid *StdResidency
	off   *StdOffload

	// Per-step scratch, reused across ReplayFor calls so the backward
	// pass of a deep network does not allocate per step. The returned
	// freeAfter slice is consumed by the caller within the same step.
	needs     []segNeed
	keep      map[int]bool
	deps      []sim.Event
	freeAfter []*tensor.Tensor
}

// segNeed records how deep into a recompute segment one backward
// step's reads reach.
type segNeed struct {
	seg    *recompute.Segment
	maxPos int
}

// ReplayFor reconstructs the dropped forward tensors this backward
// step reads, segment by segment. It returns the tensors that must be
// freed right after the step (memory-centric replays).
func (rp *StdReplayer) ReplayFor(st *program.Step) ([]*tensor.Tensor, error) {
	rt := rp.rt
	rp.freeAfter = rp.freeAfter[:0]
	needs := rp.needs[:0]
	for _, t := range st.Reads {
		nd := rt.Owner[t.ID]
		if nd < 0 || !rt.RPlan.Drop[nd] || rt.TS[t.ID].OnGPU {
			continue
		}
		seg := rt.RPlan.SegmentOf[nd]
		if seg == nil {
			rp.needs = needs
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
	rp.needs = needs
	var keep map[int]bool
	if len(needs) > 0 {
		if rp.keep == nil {
			rp.keep = make(map[int]bool, len(st.Reads))
		} else {
			clear(rp.keep)
		}
		keep = rp.keep
		for _, t := range st.Reads {
			keep[t.ID] = true
		}
	}
	for _, n := range needs {
		if !n.seg.UseMemoryCentric {
			// Speed-centric: replay the whole segment once; later
			// backward steps inside it reuse the results, which
			// liveness frees at their true last use.
			if rt.SegReplayed[n.seg.ID] {
				continue
			}
			if err := rp.replayMembers(n.seg, len(n.seg.Members)-1, nil, nil); err != nil {
				return nil, err
			}
			rt.SegReplayed[n.seg.ID] = true
		} else {
			// Memory-centric: replay only the needed prefix, freeing
			// the chain behind the replay front (streaming), and free
			// the rest immediately after this step.
			if err := rp.replayMembers(n.seg, n.maxPos, &rp.freeAfter, keep); err != nil {
				return nil, err
			}
		}
	}
	return rp.freeAfter, nil
}

// replayMembers re-runs the forward of segment members [0..upTo],
// ensuring each replay's own inputs are resident first. In streaming
// (memory-centric) mode — keep != nil — inputs behind the replay front
// are freed as soon as the next member has consumed them, unless the
// triggering step itself needs them, so the replay's transient
// footprint never exceeds two members plus the backward working set.
func (rp *StdReplayer) replayMembers(seg *recompute.Segment, upTo int, freeAfter *[]*tensor.Tensor, keep map[int]bool) error {
	rt := rp.rt
	for i := 0; i <= upTo; i++ {
		m := seg.Members[i]
		out := rt.P.Out[m.ID]
		if rt.TS[out.ID].OnGPU {
			continue
		}
		deps := rp.deps[:0]
		for _, pr := range m.Prev {
			in := rt.P.Out[pr.ID]
			s := &rt.TS[in.ID]
			if !s.OnGPU {
				if !s.OnHost {
					return fmt.Errorf("replay of %s: input %s unavailable", m.Name(), in)
				}
				if err := rp.off.Fetch(in); err != nil {
					return err
				}
			}
			if s.InflightValid {
				deps = append(deps, s.Inflight)
			}
			in.Locked = true
		}
		rp.deps = deps
		if err := rp.resid.Alloc(out); err != nil {
			return err
		}
		if rt.Cache != nil {
			rt.Cache.In(out)
		}
		dur := m.L.FwdTime(rt.Cfg.Device, 1.0)
		ev := rt.Compute.Submit(rt.TL.Now(), dur, deps...)
		rt.Span("compute", "replay "+m.Name(), ev, dur)
		rt.TL.Wait(ev)
		rt.Res.ExtraForwards++
		for _, pr := range m.Prev {
			in := rt.P.Out[pr.ID]
			in.Locked = false
			if keep == nil || keep[in.ID] {
				continue
			}
			// Streaming free: the input is recoverable either from its
			// host copy or by another replay (dropped member).
			s := &rt.TS[in.ID]
			recoverable := s.OnHost || (rt.Owner[in.ID] >= 0 && rt.RPlan.Drop[rt.Owner[in.ID]])
			if s.OnGPU && recoverable {
				rp.resid.FreeGPU(in)
			}
		}
		if freeAfter != nil {
			*freeAfter = append(*freeAfter, out)
		}
	}
	return nil
}
