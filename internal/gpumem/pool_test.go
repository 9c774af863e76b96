package gpumem

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/sim"
)

func newTestPool(capBytes int64) *Pool {
	return NewPool(capBytes, sim.Microsecond)
}

func TestPoolBasicAllocFree(t *testing.T) {
	p := newTestPool(10 * BlockSize)
	a, err := p.Alloc(100) // rounds to one block
	if err != nil {
		t.Fatal(err)
	}
	if a.Bytes != BlockSize {
		t.Errorf("rounded size = %d, want %d", a.Bytes, BlockSize)
	}
	if p.Used() != BlockSize || p.live != 1 {
		t.Errorf("used=%d live=%d after one alloc", p.Used(), p.live)
	}
	if err := p.Free(a.ID); err != nil {
		t.Fatal(err)
	}
	if p.Used() != 0 || p.live != 0 {
		t.Errorf("used=%d live=%d after free", p.Used(), p.live)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPoolFirstFit(t *testing.T) {
	p := newTestPool(10 * BlockSize)
	a, _ := p.Alloc(2 * BlockSize) // [0,2)
	b, _ := p.Alloc(3 * BlockSize) // [2,5)
	c, _ := p.Alloc(1 * BlockSize) // [5,6)
	if a.Addr != 0 || b.Addr != 2*BlockSize || c.Addr != 5*BlockSize {
		t.Fatalf("addresses %d,%d,%d not sequential", a.Addr, b.Addr, c.Addr)
	}
	// Free the middle hole; a new 2-block alloc should land there
	// (first fit), not after c.
	if err := p.Free(b.ID); err != nil {
		t.Fatal(err)
	}
	d, _ := p.Alloc(2 * BlockSize)
	if d.Addr != 2*BlockSize {
		t.Errorf("first-fit alloc at %d, want %d", d.Addr, 2*BlockSize)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPoolCoalescing(t *testing.T) {
	p := newTestPool(8 * BlockSize)
	a, _ := p.Alloc(2 * BlockSize)
	b, _ := p.Alloc(2 * BlockSize)
	c, _ := p.Alloc(2 * BlockSize)
	// Free a and c (non-adjacent), then b: all must coalesce with the
	// tail into one span covering the pool.
	p.Free(a.ID)
	p.Free(c.ID)
	p.Free(b.ID)
	if got := p.LargestFree(); got != 8*BlockSize {
		t.Errorf("largest free after coalesce = %d, want %d", got, 8*BlockSize)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Error(err)
	}
}

func TestPoolOutOfMemory(t *testing.T) {
	p := newTestPool(4 * BlockSize)
	if _, err := p.Alloc(5 * BlockSize); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

// TestPoolOOMErrorText pins the failed allocation's rendered text and
// its typed fields: the error is built without formatting, so the text
// must come out of Error() exactly as the formatted one did.
func TestPoolOOMErrorText(t *testing.T) {
	p := newTestPool(8 * BlockSize)
	var ids []int64
	for i := 0; i < 4; i++ {
		a, _ := p.Alloc(2 * BlockSize)
		ids = append(ids, a.ID)
	}
	p.Free(ids[1])
	p.Free(ids[3])
	_, err := p.Alloc(3*BlockSize - 10)
	const want = "gpumem: out of memory: need 3072 bytes, free 4096 (largest contiguous 2048)"
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %q", err, want)
	}
	if !errors.Is(err, ErrOutOfMemory) {
		t.Error("errors.Is(err, ErrOutOfMemory) = false")
	}
	var oom *OOMError
	if !errors.As(err, &oom) || *oom != (OOMError{Need: 3072, Free: 4096, Largest: 2048}) {
		t.Errorf("OOMError = %+v", oom)
	}
	wrapped := fmt.Errorf("allocating x: %w", err)
	if !errors.Is(wrapped, ErrOutOfMemory) || wrapped.Error() != "allocating x: "+want {
		t.Errorf("wrapped = %v", wrapped)
	}
}

func TestPoolFragmentationOOM(t *testing.T) {
	// Free bytes suffice but no contiguous span does.
	p := newTestPool(6 * BlockSize)
	a, _ := p.Alloc(2 * BlockSize)
	b, _ := p.Alloc(2 * BlockSize)
	_, _ = p.Alloc(2 * BlockSize)
	p.Free(a.ID)
	_ = b
	// Holes: [0,2) free, [4,6)... wait: c occupies [4,6), so frees are
	// [0,2) only. Free b too -> [0,4) coalesced. Then alloc 4 blocks OK.
	if _, err := p.Alloc(4 * BlockSize); !errors.Is(err, ErrOutOfMemory) {
		t.Fatal("expected OOM while fragmented")
	}
	p.Free(b.ID)
	if _, err := p.Alloc(4 * BlockSize); err != nil {
		t.Fatalf("after coalescing, alloc should succeed: %v", err)
	}
}

func TestPoolFreeUnknown(t *testing.T) {
	p := newTestPool(4 * BlockSize)
	if err := p.Free(42); err == nil {
		t.Fatal("freeing unknown ID must error")
	}
}

func TestPoolPeakTracking(t *testing.T) {
	p := newTestPool(10 * BlockSize)
	a, _ := p.Alloc(4 * BlockSize)
	b, _ := p.Alloc(3 * BlockSize)
	p.Free(a.ID)
	p.Free(b.ID)
	if p.Peak() != 7*BlockSize {
		t.Errorf("peak = %d, want %d", p.Peak(), 7*BlockSize)
	}
	p.ResetPeak()
	if p.Peak() != 0 {
		t.Errorf("peak after reset = %d, want 0", p.Peak())
	}
}

func TestPoolCostsCheaperThanNative(t *testing.T) {
	p := NewPool(BlockSize, sim.Microsecond)
	n := NewNative(BlockSize, 90*sim.Microsecond, 160*sim.Microsecond)
	if p.AllocCost() >= n.AllocCost() || p.FreeCost() >= n.FreeCost() {
		t.Error("pool ops must be cheaper than native ops")
	}
}

func TestNativeAllocFree(t *testing.T) {
	n := NewNative(1<<20, 90*sim.Microsecond, 160*sim.Microsecond)
	a, err := n.Alloc(1000)
	if err != nil {
		t.Fatal(err)
	}
	if a.Bytes != 1024 { // 256-byte granularity
		t.Errorf("native rounded to %d, want 1024", a.Bytes)
	}
	if n.Used() != 1024 || len(n.allocd) != 1 {
		t.Error("native accounting wrong after alloc")
	}
	// The native model never fragments: every free byte is allocatable.
	if n.MaxAlloc() != 1<<20-1024 || n.Fragmentation() != 0 {
		t.Errorf("native max alloc %d, fragmentation %v", n.MaxAlloc(), n.Fragmentation())
	}
	if err := n.Free(a.ID); err != nil {
		t.Fatal(err)
	}
	if n.Used() != 0 || n.Peak() != 1024 {
		t.Error("native accounting wrong after free")
	}
	if err := n.Free(a.ID); err == nil {
		t.Error("double free must error")
	}
}

func TestNativeOOM(t *testing.T) {
	n := NewNative(512, 0, 0)
	if _, err := n.Alloc(1024); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("err = %v, want ErrOutOfMemory", err)
	}
}

func TestFragmentationMetric(t *testing.T) {
	p := newTestPool(6 * BlockSize)
	if p.Fragmentation() != 0 {
		t.Error("fresh pool has zero fragmentation")
	}
	a, _ := p.Alloc(2 * BlockSize)
	b, _ := p.Alloc(2 * BlockSize)
	_ = b
	p.Free(a.ID)
	// Free spans: [0,2) and [4,6): largest 2, total 4 -> frag 0.5.
	if got := p.Fragmentation(); got != 0.5 {
		t.Errorf("fragmentation = %v, want 0.5", got)
	}
}

func TestPoolMaxAllocTracksLargestHole(t *testing.T) {
	p := newTestPool(8 * BlockSize)
	if p.MaxAlloc() != 8*BlockSize {
		t.Fatalf("fresh MaxAlloc = %d", p.MaxAlloc())
	}
	a, _ := p.Alloc(3 * BlockSize)
	b, _ := p.Alloc(2 * BlockSize)
	_, _ = p.Alloc(1 * BlockSize)
	p.Free(a.ID) // hole [0,3)
	_ = b
	if p.MaxAlloc() != 3*BlockSize {
		t.Errorf("MaxAlloc = %d, want 3 blocks (hole) despite 2 free at tail", p.MaxAlloc())
	}
}

func TestNativeMaxAlloc(t *testing.T) {
	n := NewNative(10*256, 0, 0)
	a, err := n.Alloc(256)
	if err != nil {
		t.Fatal(err)
	}
	if n.MaxAlloc() != 9*256 {
		t.Errorf("native MaxAlloc = %d", n.MaxAlloc())
	}
	if n.Capacity() != 10*256 {
		t.Errorf("capacity = %d", n.Capacity())
	}
	if a.Addr != -1 {
		t.Error("native allocations have no pool address")
	}
	if err := n.Free(a.ID); err != nil {
		t.Fatal(err)
	}
	if len(n.allocd) != 0 {
		t.Error("live count wrong")
	}
}

func TestNativeZeroByteAlloc(t *testing.T) {
	n := NewNative(1024, 0, 0)
	a, err := n.Alloc(0)
	if err != nil || a.Bytes != 256 {
		t.Fatalf("zero-byte alloc = %+v, %v (want 256-byte granule)", a, err)
	}
}

func TestPoolZeroByteAlloc(t *testing.T) {
	p := newTestPool(4 * BlockSize)
	a, err := p.Alloc(0)
	if err != nil || a.Bytes != BlockSize {
		t.Fatalf("zero-byte alloc = %+v, %v (want one block)", a, err)
	}
}

func TestNewPoolValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("sub-block capacity must panic")
		}
	}()
	NewPool(512, 0)
}

func TestNewNativeValidation(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("non-positive capacity must panic")
		}
	}()
	NewNative(0, 0, 0)
}

// Property: under random alloc/free sequences the pool never violates
// its structural invariants and accounting stays exact.
func TestPoolInvariantProperty(t *testing.T) {
	f := func(seed int64, opsCount uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newTestPool(64 * BlockSize)
		live := make([]int64, 0)
		for i := 0; i < int(opsCount)+8; i++ {
			if len(live) == 0 || rng.Intn(2) == 0 {
				n := int64(rng.Intn(int(8*BlockSize))) + 1
				a, err := p.Alloc(n)
				if err == nil {
					live = append(live, a.ID)
				}
			} else {
				k := rng.Intn(len(live))
				if p.Free(live[k]) != nil {
					return false
				}
				live = append(live[:k], live[k+1:]...)
			}
			if p.CheckInvariants() != nil {
				return false
			}
		}
		for _, id := range live {
			if p.Free(id) != nil {
				return false
			}
		}
		// After freeing everything the pool must be one coalesced span.
		return p.CheckInvariants() == nil && p.Used() == 0 &&
			p.LargestFree() == p.Capacity()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Error(err)
	}
}

// A Reset pool behaves exactly like a new one of the new capacity,
// whatever it held before, and reuses its storage.
func TestPoolResetMatchesNew(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := newTestPool(64 * BlockSize)
	for i := 0; i < 40; i++ {
		p.Alloc(int64(rng.Intn(int(4*BlockSize))) + 1)
	}
	for id := int64(1); id <= 40; id += 3 {
		p.Free(id)
	}
	p.Reset(32*BlockSize+100, 2*sim.Microsecond)
	fresh := NewPool(32*BlockSize+100, 2*sim.Microsecond)
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 60; i++ {
		n := int64(rng.Intn(int(3*BlockSize))) + 1
		a, errA := p.Alloc(n)
		b, errB := fresh.Alloc(n)
		if a != b || (errA == nil) != (errB == nil) {
			t.Fatalf("alloc %d of %d bytes: reset pool gave %+v (%v), new pool %+v (%v)", i, n, a, errA, b, errB)
		}
		if i%4 == 3 && errA == nil {
			if err := p.Free(a.ID); err != nil {
				t.Fatal(err)
			}
			if err := fresh.Free(b.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	if p.Used() != fresh.Used() || p.Peak() != fresh.Peak() ||
		p.live != fresh.live || p.FreeSpans() != fresh.FreeSpans() || p.AllocCost() != fresh.AllocCost() {
		t.Errorf("reset pool accounting differs from a new pool's: used %d/%d, peak %d/%d, live %d/%d, spans %d/%d",
			p.Used(), fresh.Used(), p.Peak(), fresh.Peak(), p.live, fresh.live, p.FreeSpans(), fresh.FreeSpans())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	if allocs := testing.AllocsPerRun(5, func() {
		p.Reset(32*BlockSize, sim.Microsecond)
		for i := 0; i < 8; i++ {
			p.Alloc(BlockSize)
		}
	}); allocs != 0 {
		t.Errorf("refilling a reset pool made %.0f allocations, want 0", allocs)
	}
}

// Property: allocations never overlap while live.
func TestPoolNoOverlapProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		p := newTestPool(1 << 20)
		type ext struct{ lo, hi int64 }
		var exts []ext
		for _, s := range sizes {
			a, err := p.Alloc(int64(s) + 1)
			if err != nil {
				continue
			}
			for _, e := range exts {
				if a.Addr < e.hi && e.lo < a.Addr+a.Bytes {
					return false
				}
			}
			exts = append(exts, ext{a.Addr, a.Addr + a.Bytes})
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: random alloc/free sequences keep the free list
// address-sorted and fully coalesced (CheckInvariants), keep
// Fragmentation within [0,1] after every operation, and freeing
// everything restores one span of full capacity with zero
// fragmentation.
func TestPoolFragmentationProperty(t *testing.T) {
	f := func(seed int64, opsCount uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		p := newTestPool(128 * BlockSize)
		live := make([]int64, 0)
		for i := 0; i < int(opsCount)+16; i++ {
			if len(live) == 0 || rng.Intn(3) > 0 {
				a, err := p.Alloc(int64(rng.Intn(int(6*BlockSize))) + 1)
				if err == nil {
					live = append(live, a.ID)
				}
			} else {
				k := rng.Intn(len(live))
				if p.Free(live[k]) != nil {
					return false
				}
				live = append(live[:k], live[k+1:]...)
			}
			if p.CheckInvariants() != nil {
				return false
			}
			if fr := p.Fragmentation(); fr < 0 || fr > 1 {
				t.Logf("fragmentation %v out of [0,1]", fr)
				return false
			}
		}
		for _, id := range live {
			if p.Free(id) != nil {
				return false
			}
		}
		// Fully drained: a single free span covering the whole pool.
		return p.CheckInvariants() == nil && p.Used() == 0 &&
			p.LargestFree() == p.Capacity() && p.Fragmentation() == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// TestWarmPoolAllocFreeAllocatesNothing: once the allocation table and
// the free list have grown, an Alloc/Free pair does no heap
// allocation, whether it splits a span, takes one whole or coalesces.
// A Reset keeps that storage, so the same churn on the reset pool
// allocates nothing either.
func TestWarmPoolAllocFreeAllocatesNothing(t *testing.T) {
	p := newTestPool(256 * BlockSize)
	held := make([]int64, 0, 32)
	churn := func() {
		held = held[:0]
		for i := 0; i < 32; i++ {
			a, err := p.Alloc(int64(i%3+1) * BlockSize)
			if err != nil {
				t.Fatal(err)
			}
			held = append(held, a.ID)
		}
		for i := 0; i < len(held); i += 2 {
			p.Free(held[i]) // leave holes of every size
		}
	}
	pair := func() {
		for _, n := range []int64{100, BlockSize, 3 * BlockSize, 7 * BlockSize} {
			a, err := p.Alloc(n)
			if err != nil {
				t.Fatal(err)
			}
			if err := p.Free(a.ID); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn()
	pair()
	if allocs := testing.AllocsPerRun(50, pair); allocs != 0 {
		t.Errorf("a warm pool's Alloc/Free pairs made %.1f allocations, want 0", allocs)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	again := func() {
		p.Reset(256*BlockSize, sim.Microsecond)
		churn()
		pair()
	}
	if allocs := testing.AllocsPerRun(50, again); allocs != 0 {
		t.Errorf("Reset and the same churn made %.1f allocations, want 0", allocs)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
