package core

import (
	"errors"
	"fmt"

	"repro/internal/gpumem"
	"repro/internal/program"
	"repro/internal/sim"
	"repro/internal/tensor"
)

// Residency: tensor placement — GPU allocation with reclaim-then-evict
// pressure handling (Alg. 2), Tensor Cache bookkeeping on reads and
// writes, and the liveness frees. On-demand fetches and offload
// harvests go through the offload engine (offload.go).

// pinReads makes the step's reads resident, collecting the transfer
// events the kernel must wait for. The returned slice is only valid
// until the next pinReads call.
func (rt *runState) pinReads(st *program.Step) ([]sim.Event, error) {
	deps := rt.deps[:0]
	for _, t := range st.Reads {
		s := &rt.ts[t.ID]
		if !s.onGPU {
			if !s.onHost {
				return nil, fmt.Errorf("step %d (%s): read %s is neither on GPU nor host", st.Index, st.Label(), t)
			}
			if rt.cache != nil {
				rt.cache.Check(t) // records the miss
			}
			if err := rt.fetch(t); err != nil {
				return nil, err
			}
		} else if rt.cache != nil {
			rt.cache.Check(t) // hit: move to MRU
		}
		if s.inflightValid {
			deps = append(deps, s.inflight)
			if s.inflight.DoneBy(rt.tl.Now()) {
				s.inflightValid = false
			}
		}
		t.Locked = true
	}
	rt.deps = deps
	return deps, nil
}

// materializeWrites allocates and locks the step's outputs.
func (rt *runState) materializeWrites(st *program.Step) error {
	for _, t := range st.Writes {
		s := &rt.ts[t.ID]
		if !s.onGPU {
			if err := rt.alloc(t); err != nil {
				return err
			}
			if rt.cache != nil {
				rt.cache.In(t)
			}
		}
		t.Locked = true
	}
	return nil
}

// unpin unlocks the step's reads and writes.
func (rt *runState) unpin(st *program.Step) {
	for _, t := range st.Reads {
		t.Locked = false
	}
	for _, t := range st.Writes {
		t.Locked = false
	}
}

// alloc places a tensor on the GPU, evicting cached tensors or waiting
// on pending offloads under memory pressure.
func (rt *runState) alloc(t *tensor.Tensor) error {
	for {
		a, err := rt.gpu.Alloc(t.Bytes())
		if err == nil {
			rt.chargeAlloc()
			s := &rt.ts[t.ID]
			s.gpu = a
			s.onGPU = true
			rt.resBytes += t.Bytes()
			rt.resCount++
			if rt.resBytes > rt.res.PeakResident {
				rt.res.PeakResident = rt.resBytes
				rt.res.PeakStep = rt.curStep
			}
			return nil
		}
		if !errors.Is(err, gpumem.ErrOutOfMemory) {
			return err
		}
		if rt.reclaim(t.Bytes()) {
			continue
		}
		return fmt.Errorf("allocating %s (%d bytes): %w", t, t.Bytes(), err)
	}
}

// reclaim tries to make room: first harvest pending offload frees,
// then evict LRU cache victims (Alg. 2's LRU.out).
func (rt *runState) reclaim(need int64) bool {
	if rt.harvest(true) {
		return true
	}
	if rt.cache != nil {
		victims, ok := rt.cache.Victims(need)
		if !ok {
			return false
		}
		for _, v := range victims {
			rt.evict(v)
		}
		return true
	}
	return false
}

// evict synchronously offloads an unlocked LRU victim and frees its
// GPU copy.
func (rt *runState) evict(t *tensor.Tensor) {
	s := &rt.ts[t.ID]
	if !s.onGPU {
		return
	}
	if !s.onHost {
		ha, pool, ok := rt.hostAlloc(t.Bytes())
		if !ok {
			return // every external pool exhausted: leave resident
		}
		s.host = ha
		s.hostPool = pool
		s.onHost = true
		dur := rt.hostLinks[pool].TransferTime(t.Bytes())
		ev := rt.d2h.Submit(rt.tl.Now(), dur)
		rt.spanFor("d2h", "evict", t.Layer, t.Suffix, ev, dur)
		// The reused memory must not be overwritten before the copy
		// drains; the synchronous wait is the eviction's cost.
		if ev.At() > rt.tl.Now() {
			rt.res.StallTime += sim.Duration(ev.At() - rt.tl.Now())
		}
		rt.tl.Wait(ev)
		rt.res.OffloadBytes += t.Bytes()
	}
	rt.cache.Evicted(t)
	rt.freeGPU(t)
}

// freeGPU releases the GPU copy only (any host copy survives).
func (rt *runState) freeGPU(t *tensor.Tensor) {
	s := &rt.ts[t.ID]
	if !s.onGPU {
		return
	}
	if s.inflightValid {
		// An in-flight H2D copy targets this memory; it must drain
		// before the bytes can be reused.
		rt.tl.Wait(s.inflight)
		s.inflightValid = false
	}
	rt.chargeFree()
	if err := rt.gpu.Free(s.gpu.ID); err != nil {
		panic(err) // accounting bug, not a runtime condition
	}
	s.onGPU = false
	rt.resBytes -= t.Bytes()
	rt.resCount--
	if rt.cache != nil {
		rt.cache.Remove(t)
	}
}

// freeAll releases both copies (liveness last-use free).
func (rt *runState) freeAll(t *tensor.Tensor) {
	s := &rt.ts[t.ID]
	if s.offPending {
		rt.tl.Wait(s.offEv)
		s.offPending = false
	}
	if s.onGPU {
		rt.freeGPU(t)
	}
	if s.onHost {
		if err := rt.hosts[s.hostPool].Free(s.host.ID); err != nil {
			panic(err)
		}
		s.onHost = false
	}
}
