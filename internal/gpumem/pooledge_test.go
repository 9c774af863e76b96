package gpumem

import (
	"errors"
	"math/rand"
	"testing"
)

// Edge cases of the free list: exact-fit removals at the head and
// tail of the address space, three-way coalescing, re-use after a
// full drain, spans touching the capacity boundary, and metric
// consistency after long random churn.

func TestPoolExactFitHead(t *testing.T) {
	p := newTestPool(8 * BlockSize)
	a, _ := p.Alloc(3 * BlockSize) // head [0,3)
	b, _ := p.Alloc(5 * BlockSize) // tail [3,8): pool is full
	if p.MaxAlloc() != 0 {
		t.Fatalf("full pool MaxAlloc = %d", p.MaxAlloc())
	}
	if err := p.Free(a.ID); err != nil {
		t.Fatal(err)
	}
	// Exact fit into the head hole must remove the only span.
	c, err := p.Alloc(3 * BlockSize)
	if err != nil || c.Addr != 0 {
		t.Fatalf("exact head fit: %+v, %v", c, err)
	}
	if p.FreeSpans() != 0 || p.MaxAlloc() != 0 {
		t.Fatalf("spans=%d maxalloc=%d after exact head fit", p.FreeSpans(), p.MaxAlloc())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_ = b
}

func TestPoolExactFitTail(t *testing.T) {
	p := newTestPool(8 * BlockSize)
	a, _ := p.Alloc(5 * BlockSize) // [0,5)
	b, _ := p.Alloc(3 * BlockSize) // [5,8): capacity-boundary span
	if err := p.Free(b.ID); err != nil {
		t.Fatal(err)
	}
	// The tail hole ends exactly at capacity; an exact fit must land
	// there and empty the free list.
	c, err := p.Alloc(3 * BlockSize)
	if err != nil || c.Addr != 5*BlockSize {
		t.Fatalf("exact tail fit: %+v, %v", c, err)
	}
	if c.Addr+c.Bytes != p.Capacity() {
		t.Fatalf("tail allocation [%d,%d) does not end at capacity %d", c.Addr, c.Addr+c.Bytes, p.Capacity())
	}
	if p.FreeSpans() != 0 {
		t.Fatalf("spans=%d after exact tail fit", p.FreeSpans())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_ = a
}

func TestPoolThreeWayCoalesce(t *testing.T) {
	p := newTestPool(10 * BlockSize)
	edge, _ := p.Alloc(1 * BlockSize) // [0,1) keeps the merge off the head
	a, _ := p.Alloc(2 * BlockSize)    // [1,3)
	b, _ := p.Alloc(2 * BlockSize)    // [3,5)
	c, _ := p.Alloc(2 * BlockSize)    // [5,7)
	d, _ := p.Alloc(3 * BlockSize)    // [7,10) keeps it off the tail
	p.Free(a.ID)
	p.Free(c.ID)
	if p.FreeSpans() != 2 {
		t.Fatalf("spans=%d, want 2 disjoint holes", p.FreeSpans())
	}
	// Freeing b merges predecessor [1,3), b [3,5) and successor [5,7)
	// into one span in a single Free call.
	p.Free(b.ID)
	if p.FreeSpans() != 1 || p.LargestFree() != 6*BlockSize {
		t.Fatalf("three-way coalesce: spans=%d largest=%d, want 1 span of %d",
			p.FreeSpans(), p.LargestFree(), 6*BlockSize)
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
	_, _ = edge, d
}

func TestPoolAllocAfterFullDrain(t *testing.T) {
	p := newTestPool(16 * BlockSize)
	for round := 0; round < 3; round++ {
		var ids []int64
		for {
			a, err := p.Alloc(3 * BlockSize)
			if err != nil {
				break
			}
			ids = append(ids, a.ID)
		}
		// Drain back-to-front on even rounds, front-to-back on odd.
		if round%2 == 1 {
			for i, j := 0, len(ids)-1; i < j; i, j = i+1, j-1 {
				ids[i], ids[j] = ids[j], ids[i]
			}
		}
		for _, id := range ids {
			if err := p.Free(id); err != nil {
				t.Fatal(err)
			}
		}
		// After a full drain the whole capacity must be allocatable as
		// one extent again.
		a, err := p.Alloc(p.Capacity())
		if err != nil {
			t.Fatalf("round %d: full-capacity alloc after drain: %v", round, err)
		}
		if a.Addr != 0 || p.FreeSpans() != 0 {
			t.Fatalf("round %d: full alloc at %d, %d spans left", round, a.Addr, p.FreeSpans())
		}
		if err := p.Free(a.ID); err != nil {
			t.Fatal(err)
		}
		if err := p.CheckInvariants(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPoolCapacityBoundarySpans(t *testing.T) {
	p := newTestPool(4 * BlockSize)
	// A request one byte over capacity must OOM without disturbing the
	// free list; exactly capacity must succeed.
	if _, err := p.Alloc(4*BlockSize + 1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("over-capacity alloc: %v", err)
	}
	a, err := p.Alloc(4 * BlockSize)
	if err != nil {
		t.Fatal(err)
	}
	if p.Used() != p.Capacity() || p.LargestFree() != 0 || p.Fragmentation() != 0 {
		t.Fatalf("full pool: used=%d largest=%d frag=%v", p.Used(), p.LargestFree(), p.Fragmentation())
	}
	if _, err := p.Alloc(1); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("alloc on full pool: %v", err)
	}
	if err := p.Free(a.ID); err != nil {
		t.Fatal(err)
	}
	if p.LargestFree() != p.Capacity() {
		t.Fatalf("largest=%d after freeing the boundary span", p.LargestFree())
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}

// TestPoolMetricsAfterLongChurn runs a long random workload and, after
// every operation, cross-checks Fragmentation and LargestFree against
// values recomputed from the free list itself.
func TestPoolMetricsAfterLongChurn(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	p := newTestPool(512 * BlockSize)
	var live []int64
	for op := 0; op < 5000; op++ {
		if len(live) == 0 || rng.Intn(5) < 3 {
			if a, err := p.Alloc(rng.Int63n(6*BlockSize) + 1); err == nil {
				live = append(live, a.ID)
			}
		} else {
			k := rng.Intn(len(live))
			if err := p.Free(live[k]); err != nil {
				t.Fatal(err)
			}
			live = append(live[:k], live[k+1:]...)
		}
		var largest, freeBytes int64
		for _, f := range p.free {
			largest = max(largest, f.size)
			freeBytes += f.size
		}
		if got := p.LargestFree(); got != largest {
			t.Fatalf("op %d: LargestFree=%d, free list says %d", op, got, largest)
		}
		if got := p.FreeBytes(); got != freeBytes {
			t.Fatalf("op %d: FreeBytes=%d, free list says %d", op, got, freeBytes)
		}
		want := 0.0
		if freeBytes > 0 {
			want = 1 - float64(largest)/float64(freeBytes)
		}
		if got := p.Fragmentation(); got != want {
			t.Fatalf("op %d: Fragmentation=%v, want %v", op, got, want)
		}
	}
	if err := p.CheckInvariants(); err != nil {
		t.Fatal(err)
	}
}
