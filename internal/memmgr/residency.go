package memmgr

import (
	"errors"
	"fmt"

	"repro/internal/gpumem"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// StdResidency is the standard placement manager: GPU allocation with
// reclaim-then-evict pressure handling (Alg. 2), Tensor Cache
// bookkeeping on reads and writes, and the liveness frees. It relies on
// the offload engine for on-demand fetches and offload harvests.
type StdResidency struct {
	rt  *Runtime
	off *StdOffload
	// deps is the scratch buffer PinReads returns; the caller consumes
	// it before the next step (Engine.Submit copies the values out), so
	// reusing it keeps the hot loop allocation-free.
	deps []sim.Event
}

// PinReads makes the step's reads resident, collecting the transfer
// events the kernel must wait for. The returned slice is only valid
// until the next PinReads call.
func (r *StdResidency) PinReads(st *program.Step) ([]sim.Event, error) {
	rt := r.rt
	deps := r.deps[:0]
	for _, t := range st.Reads {
		s := &rt.TS[t.ID]
		if !s.OnGPU {
			if !s.OnHost {
				return nil, fmt.Errorf("step %d (%s): read %s is neither on GPU nor host", st.Index, st.Label(), t)
			}
			if rt.Cache != nil {
				rt.Cache.Check(t) // records the miss
			}
			if err := r.off.Fetch(t); err != nil {
				return nil, err
			}
		} else if rt.Cache != nil {
			rt.Cache.Check(t) // hit: move to MRU
		}
		if s.InflightValid {
			deps = append(deps, s.Inflight)
			if s.Inflight.DoneBy(rt.TL.Now()) {
				s.InflightValid = false
			}
		}
		t.Locked = true
	}
	r.deps = deps
	return deps, nil
}

// MaterializeWrites allocates and locks the step's outputs.
func (r *StdResidency) MaterializeWrites(st *program.Step) error {
	rt := r.rt
	for _, t := range st.Writes {
		s := &rt.TS[t.ID]
		if !s.OnGPU {
			if err := r.Alloc(t); err != nil {
				return err
			}
			if rt.Cache != nil {
				rt.Cache.In(t)
			}
		}
		t.Locked = true
	}
	return nil
}

// Unpin unlocks the step's reads and writes.
func (r *StdResidency) Unpin(st *program.Step) {
	for _, t := range st.Reads {
		t.Locked = false
	}
	for _, t := range st.Writes {
		t.Locked = false
	}
}

// Alloc places a tensor on the GPU, evicting cached tensors or waiting
// on pending offloads under memory pressure.
func (r *StdResidency) Alloc(t *tensor.Tensor) error {
	rt := r.rt
	for {
		a, err := rt.GPU.Alloc(t.Bytes())
		if err == nil {
			rt.ChargeAlloc()
			s := &rt.TS[t.ID]
			s.GPU = a
			s.OnGPU = true
			rt.ResBytes += t.Bytes()
			rt.ResCount++
			if rt.ResBytes > rt.Res.PeakResident {
				rt.Res.PeakResident = rt.ResBytes
				rt.Res.PeakStep = rt.CurStep
			}
			return nil
		}
		if !errors.Is(err, gpumem.ErrOutOfMemory) {
			return err
		}
		if r.Reclaim(t.Bytes()) {
			continue
		}
		return fmt.Errorf("allocating %s (%d bytes): %w", t, t.Bytes(), err)
	}
}

// Reclaim tries to make room: first harvest pending offload frees,
// then evict LRU cache victims (Alg. 2's LRU.out).
func (r *StdResidency) Reclaim(need int64) bool {
	if r.off.Harvest(true) {
		return true
	}
	if r.rt.Cache != nil {
		victims, ok := r.rt.Cache.Victims(need)
		if !ok {
			return false
		}
		for _, v := range victims {
			r.evict(v)
		}
		return true
	}
	return false
}

// evict synchronously offloads an unlocked LRU victim and frees its
// GPU copy.
func (r *StdResidency) evict(t *tensor.Tensor) {
	rt := r.rt
	s := &rt.TS[t.ID]
	if !s.OnGPU {
		return
	}
	if !s.OnHost {
		ha, pool, ok := rt.HostAlloc(t.Bytes())
		if !ok {
			return // every external pool exhausted: leave resident
		}
		s.Host = ha
		s.HostPool = pool
		s.OnHost = true
		dur := rt.HostLinks[pool].TransferTime(t.Bytes())
		ev := rt.D2H.Submit(rt.TL.Now(), dur)
		rt.SpanFor("d2h", "evict", t.Name, ev, dur)
		// The reused memory must not be overwritten before the copy
		// drains; the synchronous wait is the eviction's cost.
		if ev.At() > rt.TL.Now() {
			rt.Res.StallTime += sim.Duration(ev.At() - rt.TL.Now())
		}
		rt.TL.Wait(ev)
		rt.Res.OffloadBytes += t.Bytes()
	}
	rt.Cache.Evicted(t)
	r.FreeGPU(t)
}

// FreeGPU releases the GPU copy only (any host copy survives).
func (r *StdResidency) FreeGPU(t *tensor.Tensor) {
	rt := r.rt
	s := &rt.TS[t.ID]
	if !s.OnGPU {
		return
	}
	if s.InflightValid {
		// An in-flight H2D copy targets this memory; it must drain
		// before the bytes can be reused.
		rt.TL.Wait(s.Inflight)
		s.InflightValid = false
	}
	rt.ChargeFree()
	if err := rt.GPU.Free(s.GPU.ID); err != nil {
		panic(err) // accounting bug, not a runtime condition
	}
	s.OnGPU = false
	rt.ResBytes -= t.Bytes()
	rt.ResCount--
	if rt.Cache != nil {
		rt.Cache.Remove(t)
	}
}

// FreeAll releases both copies (liveness last-use free).
func (r *StdResidency) FreeAll(t *tensor.Tensor) {
	rt := r.rt
	s := &rt.TS[t.ID]
	if s.OffPending {
		rt.TL.Wait(s.OffEv)
		s.OffPending = false
	}
	if s.OnGPU {
		r.FreeGPU(t)
	}
	if s.OnHost {
		if err := rt.Hosts[s.HostPool].Free(s.Host.ID); err != nil {
			panic(err)
		}
		s.OnHost = false
	}
}
