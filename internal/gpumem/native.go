package gpumem

import (
	"fmt"

	"repro/internal/sim"
)

// Native models the CUDA driver allocator (cudaMalloc/cudaFree). It
// never fragments in this model — capacity is the only limit — but
// every call carries the driver latency, and cudaFree additionally
// implies a device synchronization, which the paper identifies as the
// reason Liveness Analysis is unaffordably slow without a pool
// (ResNet-50 spends 36.28% of training time in these calls, §3.2.1).
type Native struct {
	capacity  int64
	allocCost sim.Duration
	freeCost  sim.Duration

	allocd map[int64]int64 // id -> size
	nextID int64
	used   int64
	peak   int64
}

// NewNative returns a native-allocator model with the given capacity
// and per-call costs.
func NewNative(capacity int64, allocCost, freeCost sim.Duration) *Native {
	if capacity <= 0 {
		panic("gpumem: native capacity must be positive")
	}
	return &Native{
		capacity:  capacity,
		allocCost: allocCost,
		freeCost:  freeCost,
		allocd:    make(map[int64]int64),
		nextID:    1,
	}
}

// Alloc reserves n bytes (rounded to 256-byte CUDA allocation
// granularity).
func (a *Native) Alloc(n int64) (Allocation, error) {
	if n <= 0 {
		n = 1
	}
	need := (n + 255) / 256 * 256
	if a.used+need > a.capacity {
		return Allocation{}, fmt.Errorf("%w: need %d bytes, free %d",
			ErrOutOfMemory, need, a.capacity-a.used)
	}
	id := a.nextID
	a.nextID++
	a.allocd[id] = need
	a.used += need
	if a.used > a.peak {
		a.peak = a.used
	}
	return Allocation{ID: id, Addr: -1, Bytes: need}, nil
}

// Free releases an allocation.
func (a *Native) Free(id int64) error {
	size, ok := a.allocd[id]
	if !ok {
		return fmt.Errorf("gpumem: native free of unknown allocation %d", id)
	}
	delete(a.allocd, id)
	a.used -= size
	return nil
}

// AllocCost returns the cudaMalloc latency.
func (a *Native) AllocCost() sim.Duration { return a.allocCost }

// FreeCost returns the cudaFree latency (includes the implicit sync).
func (a *Native) FreeCost() sim.Duration { return a.freeCost }

// Used returns the current reserved bytes.
func (a *Native) Used() int64 { return a.used }

// Peak returns the high-water mark.
func (a *Native) Peak() int64 { return a.peak }

// Capacity returns the device capacity given at construction.
func (a *Native) Capacity() int64 { return a.capacity }

// MaxAlloc returns the largest allocation that can succeed; the native
// model does not fragment, so this is simply the free bytes.
func (a *Native) MaxAlloc() int64 { return a.capacity - a.used }

// ResetPeak restarts peak tracking from the current usage, so callers
// can measure per-phase high-water marks.
func (a *Native) ResetPeak() { a.peak = a.used }

// Fragmentation reports 0: the native model never fragments (capacity
// is its only limit).
func (a *Native) Fragmentation() float64 { return 0 }
