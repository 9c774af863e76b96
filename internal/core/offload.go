package core

import (
	"errors"
	"fmt"

	"repro/internal/gpumem"
	"repro/internal/layers"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/tensor"
	"repro/internal/utp"
)

// The Unified Tensor Pool's transfer engine: eager D2H offloads of
// checkpoint outputs, asynchronous harvest of completed transfers,
// planned prefetches and on-demand fetches, filling the external pools
// in spill order (local CPU DRAM first, then peers/remote per Fig. 7).

// prefetch triggers the planned prefetches so the H2D copy overlaps
// this step's computation (§3.3.1). Only allocation-pressure failures
// are tolerated — fetch-on-demand covers them at the tensor's use, and
// they are counted in Result.FailedPrefetches as a memory-pressure
// signal for the adaptive planner. Any other failure means the host
// copy's state is inconsistent and must surface.
func (rt *runState) prefetch(si int) error {
	if !rt.cfg.Prefetch {
		return nil
	}
	for _, tid := range rt.uplan.PrefetchAt[si] {
		t := rt.p.Reg.Get(tid)
		s := &rt.ts[tid]
		if s.onHost && !s.onGPU && !s.inflightValid {
			if err := rt.fetch(t); err != nil {
				if errors.Is(err, gpumem.ErrOutOfMemory) {
					rt.res.FailedPrefetches++
					continue
				}
				return fmt.Errorf("prefetch of %s at step %d: %w", t, si, err)
			}
		}
	}
	return nil
}

// afterKernel runs the post-kernel offload protocol: checkpoint
// outputs leave for pinned host memory as soon as they are produced
// (eager mode), and the host-backed input batch's GPU copy becomes
// reclaimable at zero D2H cost.
func (rt *runState) afterKernel(st *program.Step) {
	// Eager offload: with the Tensor Cache the transfer only happens
	// under memory pressure (eviction).
	if st.Phase == program.Forward && rt.cache == nil && rt.cfg.Offload != utp.OffloadNone {
		out := rt.p.Out[st.Node.ID]
		if rt.uplan.OffloadTensor[out.ID] && rt.ts[out.ID].onGPU {
			rt.issueOffload(out)
		}
	}
	// The input batch is host-backed by definition — it was staged in
	// CPU RAM by the data pipeline — so its GPU copy is reclaimable
	// after the forward pass at zero D2H cost. With the Tensor Cache
	// the copy stays cached until real memory pressure evicts it.
	if st.Phase == program.Forward && st.Node.L.Type == layers.Data && rt.cfg.Liveness && rt.cache == nil {
		out := rt.p.Out[st.Node.ID]
		s := &rt.ts[out.ID]
		if s.onGPU && !s.onHost {
			// The input batch lives in local CPU DRAM (pool 0).
			if ha, err := rt.hosts[0].Alloc(out.Bytes()); err == nil {
				s.host = ha
				s.hostPool = 0
				s.onHost = true
				s.offPending = true // completes instantly: data was never GPU-only
				rt.pendingOff = append(rt.pendingOff, out.ID)
			}
		}
	}
}

// issueOffload starts the eager D2H copy of a freshly produced
// checkpoint tensor; the GPU copy is reclaimed by harvest once the
// transfer completes and the forward no longer reads it.
func (rt *runState) issueOffload(t *tensor.Tensor) {
	s := &rt.ts[t.ID]
	if s.onHost || s.offPending {
		return
	}
	ha, pool, ok := rt.hostAlloc(t.Bytes())
	if !ok {
		return
	}
	s.host = ha
	s.hostPool = pool
	s.onHost = true
	dur := rt.hostLinks[pool].TransferTime(t.Bytes())
	s.offEv = rt.d2h.Submit(rt.tl.Now(), dur)
	s.offPending = true
	rt.spanFor("d2h", "offload", t.Layer, t.Suffix, s.offEv, dur)
	rt.pendingOff = append(rt.pendingOff, t.ID)
	rt.res.OffloadBytes += t.Bytes()
}

// harvest frees GPU copies whose D2H transfer completed and whose
// forward reads are done (the executor is past the tensor's last
// forward reader). With force, when no transfer has completed yet it
// waits for the pending one that completes earliest — not the first in
// list order, which may finish long after a later-issued copy (e.g.
// the instantly-complete host-backed input batch) and would overstate
// StallTime (the background checker thread's job in the real runtime).
func (rt *runState) harvest(force bool) bool {
	freed, earliest, ok := rt.sweep()
	if freed || !force || !ok {
		return freed
	}
	rt.res.StallTime += sim.Duration(earliest.At() - rt.tl.Now())
	rt.tl.Wait(earliest)
	freed, _, _ = rt.sweep()
	return freed
}

// sweep frees every harvestable completed offload, keeping the rest
// pending. It returns whether anything was freed, plus the
// earliest-completing event among the eligible still-pending transfers
// (ok reports whether one exists).
func (rt *runState) sweep() (freed bool, earliest sim.Event, ok bool) {
	remaining := rt.pendingOff[:0]
	for _, id := range rt.pendingOff {
		s := &rt.ts[id]
		if !s.offPending || !s.onGPU {
			s.offPending = false
			continue
		}
		t := rt.p.Reg.Get(id)
		if t.Locked || rt.curStep <= rt.uplan.LastFwdRead[id] {
			remaining = append(remaining, id)
			continue
		}
		if !s.offEv.DoneBy(rt.tl.Now()) {
			if !ok || s.offEv.At() < earliest.At() {
				earliest, ok = s.offEv, true
			}
			remaining = append(remaining, id)
			continue
		}
		s.offPending = false
		rt.freeGPU(t)
		freed = true
	}
	rt.pendingOff = remaining
	return freed, earliest, ok
}

// fetch brings an offloaded tensor back to the GPU; consuming kernels
// gate on the recorded in-flight event.
func (rt *runState) fetch(t *tensor.Tensor) error {
	s := &rt.ts[t.ID]
	if err := rt.alloc(t); err != nil {
		return err
	}
	dur := rt.hostLinks[s.hostPool].TransferTime(t.Bytes())
	s.inflight = rt.h2d.Submit(rt.tl.Now(), dur)
	s.inflightValid = true
	rt.spanFor("h2d", "fetch", t.Layer, t.Suffix, s.inflight, dur)
	rt.res.PrefetchBytes += t.Bytes()
	if rt.cache != nil {
		rt.cache.In(t)
	}
	return nil
}

// dropAfterFwd frees forward outputs scheduled for recomputation once
// their forward read horizon passes.
func (rt *runState) dropAfterFwd(si int) {
	for _, id := range rt.dropAt[si] {
		if rt.ts[id].onGPU {
			rt.freeGPU(rt.p.Reg.Get(id))
		}
	}
}
