package memmgr

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

// StdOffload is the Unified Tensor Pool's transfer engine: eager D2H
// offloads of checkpoint outputs, asynchronous harvest of completed
// transfers, planned prefetches and on-demand fetches, filling the
// external pools in spill order (local CPU DRAM first, then
// peers/remote per Fig. 7).
type StdOffload struct {
	rt    *Runtime
	resid *StdResidency
}

// Prefetch triggers the planned prefetches so the H2D copy overlaps
// this step's computation (§3.3.1). Only allocation-pressure failures
// are tolerated — fetch-on-demand covers them at the tensor's use, and
// they are counted in Result.FailedPrefetches as a memory-pressure
// signal for the adaptive planner. Any other failure means the host
// copy's state is inconsistent and must surface.
func (o *StdOffload) Prefetch(si int) error {
	rt := o.rt
	if !rt.Cfg.Prefetch {
		return nil
	}
	for _, tid := range rt.UPlan.PrefetchAt[si] {
		t := rt.P.Reg.Get(tid)
		s := &rt.TS[tid]
		if s.OnHost && !s.OnGPU && !s.InflightValid {
			if err := o.Fetch(t); err != nil {
				if errors.Is(err, gpumem.ErrOutOfMemory) {
					rt.Res.FailedPrefetches++
					continue
				}
				return fmt.Errorf("prefetch of %s at step %d: %w", t, si, err)
			}
		}
	}
	return nil
}

// AfterKernel runs the post-kernel offload protocol: checkpoint
// outputs leave for pinned host memory as soon as they are produced
// (eager mode), and the host-backed input batch's GPU copy becomes
// reclaimable at zero D2H cost.
func (o *StdOffload) AfterKernel(st *program.Step) {
	rt := o.rt
	// Eager offload: with the Tensor Cache the transfer only happens
	// under memory pressure (eviction).
	if st.Phase == program.Forward && rt.Cache == nil && rt.Cfg.Offload != utp.OffloadNone {
		out := rt.P.Out[st.Node.ID]
		if rt.UPlan.OffloadTensor[out.ID] && rt.TS[out.ID].OnGPU {
			o.IssueOffload(out)
		}
	}
	// The input batch is host-backed by definition — it was staged in
	// CPU RAM by the data pipeline — so its GPU copy is reclaimable
	// after the forward pass at zero D2H cost. With the Tensor Cache
	// the copy stays cached until real memory pressure evicts it.
	if st.Phase == program.Forward && st.Node.L.Type == layers.Data && rt.Cfg.Liveness && rt.Cache == nil {
		out := rt.P.Out[st.Node.ID]
		s := &rt.TS[out.ID]
		if s.OnGPU && !s.OnHost {
			// The input batch lives in local CPU DRAM (pool 0).
			if ha, err := rt.Hosts[0].Alloc(out.Bytes()); err == nil {
				s.Host = ha
				s.HostPool = 0
				s.OnHost = true
				s.OffPending = true // completes instantly: data was never GPU-only
				rt.PendingOff = append(rt.PendingOff, out.ID)
			}
		}
	}
}

// IssueOffload starts the eager D2H copy of a freshly produced
// checkpoint tensor; the GPU copy is reclaimed by Harvest once the
// transfer completes and the forward no longer reads it.
func (o *StdOffload) IssueOffload(t *tensor.Tensor) {
	rt := o.rt
	s := &rt.TS[t.ID]
	if s.OnHost || s.OffPending {
		return
	}
	ha, pool, ok := rt.HostAlloc(t.Bytes())
	if !ok {
		return
	}
	s.Host = ha
	s.HostPool = pool
	s.OnHost = true
	dur := rt.HostLinks[pool].TransferTime(t.Bytes())
	s.OffEv = rt.D2H.Submit(rt.TL.Now(), dur)
	s.OffPending = true
	rt.SpanFor("d2h", "offload", t.Name, s.OffEv, dur)
	rt.PendingOff = append(rt.PendingOff, t.ID)
	rt.Res.OffloadBytes += t.Bytes()
}

// Harvest frees GPU copies whose D2H transfer completed and whose
// forward reads are done (the executor is past the tensor's last
// forward reader). With force, when no transfer has completed yet it
// waits for the pending one that completes earliest — not the first in
// list order, which may finish long after a later-issued copy (e.g.
// the instantly-complete host-backed input batch) and would overstate
// StallTime (the background checker thread's job in the real runtime).
func (o *StdOffload) Harvest(force bool) bool {
	freed, earliest, ok := o.sweep()
	if freed || !force || !ok {
		return freed
	}
	rt := o.rt
	rt.Res.StallTime += sim.Duration(earliest.At() - rt.TL.Now())
	rt.TL.Wait(earliest)
	freed, _, _ = o.sweep()
	return freed
}

// sweep frees every harvestable completed offload, keeping the rest
// pending. It returns whether anything was freed, plus the
// earliest-completing event among the eligible still-pending transfers
// (ok reports whether one exists).
func (o *StdOffload) sweep() (freed bool, earliest sim.Event, ok bool) {
	rt := o.rt
	remaining := rt.PendingOff[:0]
	for _, id := range rt.PendingOff {
		s := &rt.TS[id]
		if !s.OffPending || !s.OnGPU {
			s.OffPending = false
			continue
		}
		t := rt.P.Reg.Get(id)
		if t.Locked || rt.CurStep <= rt.UPlan.LastFwdRead[id] {
			remaining = append(remaining, id)
			continue
		}
		if !s.OffEv.DoneBy(rt.TL.Now()) {
			if !ok || s.OffEv.At() < earliest.At() {
				earliest, ok = s.OffEv, true
			}
			remaining = append(remaining, id)
			continue
		}
		s.OffPending = false
		o.resid.FreeGPU(t)
		freed = true
	}
	rt.PendingOff = remaining
	return freed, earliest, ok
}

// Fetch brings an offloaded tensor back to the GPU; consuming kernels
// gate on the recorded in-flight event.
func (o *StdOffload) Fetch(t *tensor.Tensor) error {
	rt := o.rt
	s := &rt.TS[t.ID]
	if err := o.resid.Alloc(t); err != nil {
		return err
	}
	dur := rt.HostLinks[s.HostPool].TransferTime(t.Bytes())
	s.Inflight = rt.H2D.Submit(rt.TL.Now(), dur)
	s.InflightValid = true
	rt.SpanFor("h2d", "fetch", t.Name, s.Inflight, dur)
	rt.Res.PrefetchBytes += t.Bytes()
	if rt.Cache != nil {
		rt.Cache.In(t)
	}
	return nil
}

// DropAfterFwd frees forward outputs scheduled for recomputation once
// their forward read horizon passes.
func (o *StdOffload) DropAfterFwd(si int) {
	rt := o.rt
	for _, id := range rt.DropAt[si] {
		if rt.TS[id].OnGPU {
			o.resid.FreeGPU(rt.P.Reg.Get(id))
		}
	}
}
