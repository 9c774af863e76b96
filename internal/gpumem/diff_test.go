package gpumem

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// The differential property: under arbitrary alloc/free workloads the
// pool and the independently written reference produce identical
// Allocation sequences (ID, Addr, Bytes), identical errors, and agree
// on every observable metric, while both keep their invariants. This
// is what "byte-identical first-fit placement" means operationally —
// every determinism guarantee built on the pool (core conformance,
// sched trace replay, serve log replay) reduces to it.

// diffStep drives both pools through one operation and asserts
// equivalence. live holds IDs currently allocated on both sides (the
// ID sequences are identical, so one list serves both).
func diffStep(t *testing.T, p *Pool, r *refPool, op func() (Allocation, error, Allocation, error)) {
	t.Helper()
	pa, pe, ra, re := op()
	if pa != ra {
		t.Fatalf("allocation diverged: pool %+v vs reference %+v", pa, ra)
	}
	if (pe == nil) != (re == nil) || (pe != nil && pe.Error() != re.Error()) {
		t.Fatalf("error diverged: pool %v vs reference %v", pe, re)
	}
	assertSameView(t, p, r)
}

func assertSameView(t *testing.T, p *Pool, r *refPool) {
	t.Helper()
	if err := p.CheckInvariants(); err != nil {
		t.Fatalf("pool invariants: %v", err)
	}
	if err := r.CheckInvariants(); err != nil {
		t.Fatalf("reference invariants: %v", err)
	}
	if p.Used() != r.Used() || p.Peak() != r.Peak() {
		t.Fatalf("usage diverged: pool used=%d peak=%d, reference used=%d peak=%d",
			p.Used(), p.Peak(), r.Used(), r.Peak())
	}
	if p.LargestFree() != r.LargestFree() {
		t.Fatalf("LargestFree diverged: %d vs %d", p.LargestFree(), r.LargestFree())
	}
	if p.FreeSpans() != r.FreeSpans() {
		t.Fatalf("span count diverged: %d vs %d", p.FreeSpans(), r.FreeSpans())
	}
	if p.Fragmentation() != r.Fragmentation() {
		t.Fatalf("Fragmentation diverged: %v vs %v", p.Fragmentation(), r.Fragmentation())
	}
	if p.MaxAlloc() != r.MaxAlloc() {
		t.Fatalf("MaxAlloc diverged: %d vs %d", p.MaxAlloc(), r.MaxAlloc())
	}
}

// TestPoolMatchesReferenceFirstFit fuzzes randomized alloc/free
// workloads over a spread of pool sizes and allocation regimes,
// including exact-fit-heavy and OOM-heavy mixes and one whose free
// list runs to hundreds of spans, so spans are inserted into and
// deleted from the middle of a long list.
func TestPoolMatchesReferenceFirstFit(t *testing.T) {
	regimes := []struct {
		name     string
		blocks   int64 // pool capacity in blocks
		maxAlloc int64 // request ceiling in bytes
		freeBias int   // out of 10: how often to free when possible
		comb     int   // allocations made, and every other one freed, before the mix
		minSpans int   // free spans the mix must reach on some seed
	}{
		{"small-tight", 32, 16 * BlockSize, 4, 0, 0},
		{"exact-fit", 64, 4 * BlockSize, 5, 0, 0}, // block-multiple sizes: exact fits dominate
		{"mixed", 256, 12*BlockSize + 511, 4, 0, 0},
		{"oom-heavy", 48, 64 * BlockSize, 2, 0, 0},
		{"churny", 1024, 8*BlockSize + 13, 6, 0, 0},
		{"long-list", 4096, 2 * BlockSize, 5, 600, 200},
	}
	for _, reg := range regimes {
		t.Run(reg.name, func(t *testing.T) {
			spans := 0 // the longest free list the mix reached
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p := NewPool(reg.blocks*BlockSize, sim.Microsecond)
				r := newRefPool(reg.blocks*BlockSize, sim.Microsecond)
				var live []int64
				alloc := func() {
					n := rng.Int63n(reg.maxAlloc) + 1
					if reg.name == "exact-fit" {
						n = (rng.Int63n(4) + 1) * BlockSize
					}
					var a Allocation
					var err error
					diffStep(t, p, r, func() (Allocation, error, Allocation, error) {
						var ra Allocation
						var re error
						a, err = p.Alloc(n)
						ra, re = r.Alloc(n)
						return a, err, ra, re
					})
					if err == nil {
						live = append(live, a.ID)
					}
				}
				free := func(k int) {
					id := live[k]
					live = append(live[:k], live[k+1:]...)
					diffStep(t, p, r, func() (Allocation, error, Allocation, error) {
						return Allocation{}, p.Free(id), Allocation{}, r.Free(id)
					})
				}
				for range reg.comb {
					alloc()
				}
				for k := len(live) - 2; k >= 0; k -= 2 {
					free(k)
				}
				for op := 0; op < 400; op++ {
					if len(live) == 0 || rng.Intn(10) >= reg.freeBias {
						alloc()
					} else {
						free(rng.Intn(len(live)))
					}
					spans = max(spans, p.FreeSpans())
				}
				// Drain in random order; both must converge to one
				// full-capacity span.
				rng.Shuffle(len(live), func(i, j int) { live[i], live[j] = live[j], live[i] })
				for _, id := range live {
					diffStep(t, p, r, func() (Allocation, error, Allocation, error) {
						return Allocation{}, p.Free(id), Allocation{}, r.Free(id)
					})
				}
				if p.LargestFree() != p.Capacity() {
					t.Fatalf("seed %d: drained pool not one span: largest %d, capacity %d",
						seed, p.LargestFree(), p.Capacity())
				}
			}
			if spans < reg.minSpans {
				t.Fatalf("the longest free list had %d spans, want at least %d", spans, reg.minSpans)
			}
		})
	}
}

// TestPoolMatchesReferenceErrors pins the divergence-sensitive error
// paths: OOM text (which embeds LargestFree), unknown-ID frees, and
// stale handles whose row a later allocation reuses.
func TestPoolMatchesReferenceErrors(t *testing.T) {
	p := NewPool(8*BlockSize, sim.Microsecond)
	r := newRefPool(8*BlockSize, sim.Microsecond)
	// Fragment both: [busy][free][busy][free]...
	var ids []int64
	for i := 0; i < 4; i++ {
		a, _ := p.Alloc(2 * BlockSize)
		r.Alloc(2 * BlockSize)
		ids = append(ids, a.ID)
	}
	p.Free(ids[1])
	r.Free(ids[1])
	p.Free(ids[3])
	r.Free(ids[3])
	pe := func() error { _, err := p.Alloc(3 * BlockSize); return err }()
	re := func() error { _, err := r.Alloc(3 * BlockSize); return err }()
	if pe == nil || re == nil || pe.Error() != re.Error() {
		t.Fatalf("OOM errors diverged:\n  pool:      %v\n  reference: %v", pe, re)
	}
	if pe2, re2 := p.Free(99), r.Free(99); pe2 == nil || re2 == nil || pe2.Error() != re2.Error() {
		t.Fatalf("unknown-free errors diverged: %v vs %v", pe2, re2)
	}
	assertSameView(t, p, r)

	// Stale handle: A's row is reused by B, so A's handle must not
	// free B, and B must stay live.
	a, _ := p.Alloc(BlockSize)
	ra, _ := r.Alloc(BlockSize)
	p.Free(a.ID)
	r.Free(ra.ID)
	b, _ := p.Alloc(BlockSize)
	rb, _ := r.Alloc(BlockSize)
	if a != ra || b != rb {
		t.Fatalf("handles diverged: pool %+v then %+v, reference %+v then %+v", a, b, ra, rb)
	}
	if b.ID == a.ID || b.ID&(1<<32-1) != a.ID&(1<<32-1) {
		t.Fatalf("B %#x should reuse A's row %#x under a new generation", b.ID, a.ID)
	}
	pe3, re3 := p.Free(a.ID), r.Free(a.ID)
	if pe3 == nil || re3 == nil || pe3.Error() != re3.Error() {
		t.Fatalf("stale-free errors diverged: %v vs %v", pe3, re3)
	}
	live, used := p.live, p.Used()
	assertSameView(t, p, r)
	if err := p.Free(b.ID); err != nil {
		t.Fatalf("B was not live after the stale free: %v", err)
	}
	if err := r.Free(b.ID); err != nil {
		t.Fatalf("reference: B was not live after the stale free: %v", err)
	}
	if p.live != live-1 || p.Used() != used-BlockSize {
		t.Fatalf("freeing B: live %d used %d, want %d and %d", p.live, p.Used(), live-1, used-BlockSize)
	}
	if pe4, re4 := p.Free(b.ID), r.Free(b.ID); pe4 == nil || re4 == nil || pe4.Error() != re4.Error() {
		t.Fatalf("double-free errors diverged: %v vs %v", pe4, re4)
	}
	assertSameView(t, p, r)
}
