package gpumem

import (
	"math/rand"
	"testing"

	"repro/internal/sim"
)

// The differential property: under arbitrary alloc/free workloads the
// indexed pool and the linear-scan reference produce identical
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
// including exact-fit-heavy and OOM-heavy mixes.
func TestPoolMatchesReferenceFirstFit(t *testing.T) {
	regimes := []struct {
		name     string
		blocks   int64 // pool capacity in blocks
		maxAlloc int64 // request ceiling in bytes
		freeBias int   // out of 10: how often to free when possible
	}{
		{"small-tight", 32, 16 * BlockSize, 4},
		{"exact-fit", 64, 4 * BlockSize, 5}, // block-multiple sizes: exact fits dominate
		{"mixed", 256, 12*BlockSize + 511, 4},
		{"oom-heavy", 48, 64 * BlockSize, 2},
		{"churny", 1024, 8*BlockSize + 13, 6},
	}
	for _, reg := range regimes {
		t.Run(reg.name, func(t *testing.T) {
			for seed := int64(0); seed < 20; seed++ {
				rng := rand.New(rand.NewSource(seed))
				p := NewPool(reg.blocks*BlockSize, sim.Microsecond)
				r := newRefPool(reg.blocks*BlockSize, sim.Microsecond)
				var live []int64
				for op := 0; op < 400; op++ {
					if len(live) == 0 || rng.Intn(10) >= reg.freeBias {
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
					} else {
						k := rng.Intn(len(live))
						id := live[k]
						live = append(live[:k], live[k+1:]...)
						diffStep(t, p, r, func() (Allocation, error, Allocation, error) {
							return Allocation{}, p.Free(id), Allocation{}, r.Free(id)
						})
					}
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
		})
	}
}

// TestPoolMatchesReferenceErrors pins the divergence-sensitive error
// paths: OOM text (which embeds LargestFree) and unknown-ID frees.
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
}
