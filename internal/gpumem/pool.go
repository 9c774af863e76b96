// Package gpumem implements the memory-management substrate of the
// SuperNeurons runtime (§3.2.1 of the paper):
//
//   - Pool: a fast heap-based allocator over one big preallocated
//     region, carved into 1 KiB blocks, with a first-fit free-space
//     index (an address-ordered AVL tree augmented with subtree max
//     span sizes, giving O(log n) alloc/free and O(1) MaxAlloc), an
//     ID→node table for O(1) deallocation lookup, and free-span
//     coalescing. Pool operations cost ~1 µs of virtual time, which
//     amortizes away the cudaMalloc/cudaFree overhead that costs
//     ResNet-50 36% of its iteration time on the native allocator.
//
//   - Native: a cost model of cudaMalloc/cudaFree (cudaFree
//     synchronizes the device, making it the more expensive call).
//
// Both implement Allocator so the runtime can swap them (Table 2 of the
// paper compares exactly this).
package gpumem

import (
	"errors"
	"fmt"
	"sort"

	"repro/internal/sim"
)

// BlockSize is the basic storage unit of the pool. The paper divides
// the preallocated region into 1 KB blocks.
const BlockSize int64 = 1024

// ErrOutOfMemory is returned when an allocation cannot be satisfied.
var ErrOutOfMemory = errors.New("gpumem: out of memory")

// OOMError is the pool's failed allocation. It wraps ErrOutOfMemory and
// renders its text only when asked: the runtime's residency manager
// reclaims and retries on most failures and never reads it.
type OOMError struct {
	Need, Free, Largest int64
}

func (e *OOMError) Error() string {
	return fmt.Sprintf("%v: need %d bytes, free %d (largest contiguous %d)",
		ErrOutOfMemory, e.Need, e.Free, e.Largest)
}

// Unwrap makes errors.Is(err, ErrOutOfMemory) hold.
func (e *OOMError) Unwrap() error { return ErrOutOfMemory }

// Allocation identifies a live allocation.
type Allocation struct {
	ID    int64 // node ID, key for Free
	Addr  int64 // byte offset within the managed region
	Bytes int64 // rounded-up extent actually reserved
}

// Allocator is the common interface of the pool and the native
// cost-model allocator. Implementations are not safe for concurrent
// use; every simulated device owns its own instance.
type Allocator interface {
	// Alloc reserves n bytes and returns the allocation handle.
	Alloc(n int64) (Allocation, error)
	// Free releases a previous allocation by ID.
	Free(id int64) error
	// AllocCost and FreeCost are the virtual-time prices of one call.
	AllocCost() sim.Duration
	FreeCost() sim.Duration
	// Used is the current reserved footprint; Peak its high-water mark.
	Used() int64
	Peak() int64
	// Capacity is the total manageable size.
	Capacity() int64
	// MaxAlloc is the largest single allocation that can currently
	// succeed (bounded by fragmentation for the pool).
	MaxAlloc() int64
	// ResetPeak restarts peak tracking from the current usage.
	ResetPeak()
	// Fragmentation is 1 - largest/total free space, in [0,1].
	Fragmentation() float64
}

type span struct {
	id   int64
	addr int64
	size int64
}

// Stats aggregates allocator activity for reporting.
type Stats struct {
	Allocs       int64
	Frees        int64
	FailedAllocs int64
	BytesServed  int64
}

// Pool is the heap-based preallocated memory pool.
type Pool struct {
	capacity int64
	opCost   sim.Duration

	free   freeIndex // address-ordered, fully coalesced free spans
	allocd map[int64]span
	nextID int64

	used  int64
	peak  int64
	stats Stats
}

// NewPool preallocates a pool of the given capacity (rounded down to a
// whole number of blocks) whose operations cost opCost virtual time.
func NewPool(capacity int64, opCost sim.Duration) *Pool {
	p := new(Pool)
	p.Reset(capacity, opCost)
	return p
}

// Reset empties the pool and gives it a new capacity and operation
// cost, as NewPool would, but keeps the storage of its allocation
// table and free-space index for reuse. Allocations made before the
// Reset are forgotten.
func (p *Pool) Reset(capacity int64, opCost sim.Duration) {
	capacity = capacity / BlockSize * BlockSize
	if capacity <= 0 {
		panic("gpumem: pool capacity must be at least one block")
	}
	if p.allocd == nil {
		p.allocd = make(map[int64]span)
	}
	clear(p.allocd)
	p.free.reset()
	p.capacity, p.opCost, p.nextID = capacity, opCost, 1
	p.used, p.peak, p.stats = 0, 0, Stats{}
	p.free.insert(0, capacity)
}

func roundUp(n int64) int64 {
	if n <= 0 {
		n = 1
	}
	return (n + BlockSize - 1) / BlockSize * BlockSize
}

// Alloc reserves n bytes (rounded up to whole blocks) using first-fit:
// the index returns the lowest-address free span with room, exactly
// what a linear scan of the address-sorted free list would pick, in
// O(log n).
func (p *Pool) Alloc(n int64) (Allocation, error) {
	need := roundUp(n)
	addr, size, ok := p.free.firstFit(need)
	if !ok {
		p.stats.FailedAllocs++
		return Allocation{}, &OOMError{Need: need, Free: p.capacity - p.used, Largest: p.LargestFree()}
	}
	a := Allocation{ID: p.nextID, Addr: addr, Bytes: need}
	p.nextID++
	if size == need {
		p.free.remove(addr)
	} else {
		p.free.takeFront(addr, need)
	}
	p.allocd[a.ID] = span{id: a.ID, addr: a.Addr, size: need}
	p.used += need
	if p.used > p.peak {
		p.peak = p.used
	}
	p.stats.Allocs++
	p.stats.BytesServed += need
	return a, nil
}

// Free returns an allocation to the pool, coalescing with its free
// neighbors in O(log n): an adjacent successor is absorbed and removed,
// an adjacent predecessor is grown in place.
func (p *Pool) Free(id int64) error {
	s, ok := p.allocd[id]
	if !ok {
		return fmt.Errorf("gpumem: free of unknown allocation %d", id)
	}
	delete(p.allocd, id)
	p.used -= s.size
	p.stats.Frees++

	start, size := s.addr, s.size
	if na, ns, ok := p.free.nextSpan(start); ok && start+size == na {
		p.free.remove(na)
		size += ns
	}
	if pa, ps, ok := p.free.prevSpan(start); ok && pa+ps == start {
		p.free.grow(pa, size)
	} else {
		p.free.insert(start, size)
	}
	return nil
}

// AllocCost returns the virtual-time price of one pool allocation.
func (p *Pool) AllocCost() sim.Duration { return p.opCost }

// FreeCost returns the virtual-time price of one pool deallocation.
func (p *Pool) FreeCost() sim.Duration { return p.opCost }

// Used returns the currently reserved bytes.
func (p *Pool) Used() int64 { return p.used }

// Peak returns the highest reserved footprint observed.
func (p *Pool) Peak() int64 { return p.peak }

// Capacity returns the pool's total size.
func (p *Pool) Capacity() int64 { return p.capacity }

// FreeBytes returns the total unreserved bytes.
func (p *Pool) FreeBytes() int64 { return p.capacity - p.used }

// MaxAlloc returns the largest single allocation that can currently
// succeed: the largest contiguous free extent.
func (p *Pool) MaxAlloc() int64 { return p.LargestFree() }

// LargestFree returns the largest contiguous free extent; allocations
// larger than this fail even if FreeBytes would suffice. It is an O(1)
// read of the index root's augmentation — the step loop calls it (via
// MaxAlloc) on every convolution step to size the dynamic workspace.
func (p *Pool) LargestFree() int64 { return p.free.largest() }

// FreeSpans returns the number of fragments the free space is split
// into (a fragmentation diagnostic).
func (p *Pool) FreeSpans() int { return p.free.count }

// Fragmentation returns 1 - largest/total free space, in [0,1]. An
// empty or fully-allocated pool reports 0.
func (p *Pool) Fragmentation() float64 {
	free := p.FreeBytes()
	if free == 0 {
		return 0
	}
	return 1 - float64(p.LargestFree())/float64(free)
}

// Live returns the number of live allocations.
func (p *Pool) Live() int { return len(p.allocd) }

// Stats returns a copy of the activity counters.
func (p *Pool) Stats() Stats { return p.stats }

// ResetPeak restarts peak tracking from the current usage, so callers
// can measure per-phase high-water marks.
func (p *Pool) ResetPeak() { p.peak = p.used }

// CheckInvariants validates internal consistency; it is exercised by
// property-based tests and returns a descriptive error on violation.
func (p *Pool) CheckInvariants() error {
	if err := p.free.check(); err != nil {
		return err
	}
	var freeBytes int64
	prevEnd := int64(-1) // end of the previous span; -1 = none yet
	if err := p.free.walk(func(addr, size int64) error {
		switch {
		case size <= 0 || addr < 0 || addr+size > p.capacity:
			return fmt.Errorf("free span out of range: [%d,%d)", addr, addr+size)
		case addr%BlockSize != 0 || size%BlockSize != 0:
			return fmt.Errorf("free span not block aligned: [%d,%d)", addr, addr+size)
		case prevEnd > addr:
			return fmt.Errorf("free spans overlap: previous ends at %d, next starts at %d", prevEnd, addr)
		case prevEnd == addr:
			return fmt.Errorf("free spans not coalesced at %d", addr)
		}
		prevEnd = addr + size
		freeBytes += size
		return nil
	}); err != nil {
		return err
	}
	var usedBytes int64
	spans := make([]span, 0, len(p.allocd))
	for id, s := range p.allocd {
		if s.id != id {
			return fmt.Errorf("allocated span id mismatch: %d vs %+v", id, s)
		}
		usedBytes += s.size
		spans = append(spans, s)
	}
	sort.Slice(spans, func(i, j int) bool { return spans[i].addr < spans[j].addr })
	for i := 1; i < len(spans); i++ {
		if spans[i-1].addr+spans[i-1].size > spans[i].addr {
			return fmt.Errorf("allocated spans overlap: %+v then %+v", spans[i-1], spans[i])
		}
	}
	if usedBytes != p.used {
		return fmt.Errorf("used accounting drift: sum %d vs counter %d", usedBytes, p.used)
	}
	if freeBytes+usedBytes != p.capacity {
		return fmt.Errorf("free+used = %d, capacity %d", freeBytes+usedBytes, p.capacity)
	}
	return nil
}
