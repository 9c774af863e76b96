package gpumem

import (
	"fmt"
	"testing"

	"repro/internal/sim"
)

// fragmentTo carves the pool's address space into exactly spans free
// holes: (spans-1) one-block holes separated by live blocks, plus a
// final two-block hole. Every benchmark op then allocates two blocks,
// which first-fit can only place in the last hole, so the scan walks
// every span to find it, and frees it again, restoring the layout.
// MaxAlloc is sampled too, mirroring the step loop's per-convolution
// workspace sizing.
func fragmentTo(tb testing.TB, p *Pool, spans int) {
	holes := make([]int64, 0, spans)
	for i := 0; i < spans-1; i++ {
		if _, err := p.Alloc(BlockSize); err != nil { // separator, stays live
			tb.Fatal(err)
		}
		h, err := p.Alloc(BlockSize)
		if err != nil {
			tb.Fatal(err)
		}
		holes = append(holes, h.ID)
	}
	if _, err := p.Alloc(BlockSize); err != nil {
		tb.Fatal(err)
	}
	h, err := p.Alloc(2 * BlockSize)
	if err != nil {
		tb.Fatal(err)
	}
	holes = append(holes, h.ID)
	for _, id := range holes {
		if err := p.Free(id); err != nil {
			tb.Fatal(err)
		}
	}
	if p.FreeSpans() != spans {
		tb.Fatalf("setup produced %d free spans, want %d", p.FreeSpans(), spans)
	}
}

// BenchmarkPoolScaling measures one MaxAlloc + first-fit alloc/free
// cycle of the pool against the number of free spans, at the lengths
// real runs reach. Over the paper's tables and figures the free list
// held a mean of about 4 spans per Alloc, 16 or fewer on 95% of calls
// and never more than 56, so the rows are the mean, about the 95th
// percentile, and a length above the largest seen.
func BenchmarkPoolScaling(b *testing.B) {
	for _, spans := range []int{4, 16, 64} {
		// "spans=N", not "spans-N": a trailing -number would be
		// indistinguishable from the GOMAXPROCS suffix that snbench
		// (like benchstat) strips from benchmark names.
		b.Run(fmt.Sprintf("pool/spans=%d", spans), func(b *testing.B) {
			p := NewPool(int64(2*spans+1)*BlockSize, sim.Microsecond)
			fragmentTo(b, p, spans)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if p.MaxAlloc() < 2*BlockSize {
					b.Fatal("layout lost the two-block hole")
				}
				a, err := p.Alloc(2 * BlockSize)
				if err != nil {
					b.Fatal(err)
				}
				if err := p.Free(a.ID); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
