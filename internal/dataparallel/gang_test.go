package dataparallel

import (
	"testing"

	"repro/internal/hw"
	"repro/internal/sim"
)

// The bucketed exchange degenerates to the classic formula at one
// bucket, and bucketing only ever adds per-step latency.
func TestGangAllReduceBucketing(t *testing.T) {
	link := hw.LinkSpec{Name: "t", BytesPerSec: 1e9, Latency: sim.Microsecond}
	bytes, k := int64(64<<20), 8
	one := GangAllReduce(link, bytes, k, 1)
	if one != RingAllReduceTime(link, bytes, k) {
		t.Error("one bucket must match the classic ring formula")
	}
	prev := one
	for buckets := 2; buckets <= 64; buckets *= 2 {
		got := GangAllReduce(link, bytes, k, buckets)
		if got < prev {
			t.Errorf("%d buckets cost %v, less than %d buckets %v", buckets, got, buckets/2, prev)
		}
		prev = got
	}
	// On a latency-free wire the split is exact: buckets cost nothing.
	free := hw.LinkSpec{Name: "f", BytesPerSec: 1e9}
	a := GangAllReduce(free, 64<<20, 8, 1)
	b := GangAllReduce(free, 64<<20, 8, 8)
	// Integer chunking may drop sub-byte remainders per bucket.
	if d := a - b; d < 0 || d > sim.Microsecond {
		t.Errorf("latency-free bucketing shifted cost by %v", d)
	}
}

// Property: the exchange price is monotone in message size, from
// messages smaller than the bucket count up.
func TestGangAllReduceMonotoneInSize(t *testing.T) {
	link := hw.PCIeP2P
	var prev sim.Duration
	for bytes := int64(1); bytes <= 1<<30; bytes <<= 2 {
		got := GangAllReduce(link, bytes, 4, DefaultBuckets)
		if got < prev {
			t.Fatalf("%d bytes cost %v, less than a smaller message's %v", bytes, got, prev)
		}
		prev = got
	}
}

// The overlap model: serialized exposes everything; overlapped hides
// up to half the iteration and exposes the remainder.
func TestExposedAllReduceModel(t *testing.T) {
	iter := sim.Duration(10 * sim.Millisecond)
	cases := []struct {
		name    string
		ar      sim.Duration
		overlap bool
		want    sim.Duration
	}{
		{"serialized exposes all", 3 * sim.Millisecond, false, 3 * sim.Millisecond},
		{"small exchange fully hidden", 3 * sim.Millisecond, true, 0},
		{"exactly the window", 5 * sim.Millisecond, true, 0},
		{"overflow is exposed", 8 * sim.Millisecond, true, 3 * sim.Millisecond},
		{"zero exchange", 0, true, 0},
	}
	for _, c := range cases {
		if got := ExposedAllReduce(c.ar, iter, c.overlap); got != c.want {
			t.Errorf("%s: ExposedAllReduce(%v, %v, %v) = %v, want %v", c.name, c.ar, iter, c.overlap, got, c.want)
		}
	}
}

// PriceGang is the single pricing rule both admission and elastic
// shrink apply: zero for a single device, the slowest-tier bucketed
// exchange otherwise — so a shrunk gang is re-priced exactly as a
// freshly admitted gang of the same placement would be.
func TestPriceGang(t *testing.T) {
	topo := hw.DefaultTopology()
	bytes := int64(256 << 20)

	if got := PriceGang(topo, nil, bytes, DefaultBuckets); got != 0 {
		t.Errorf("empty gang priced %v", got)
	}
	if got := PriceGang(topo, []int{3}, bytes, DefaultBuckets); got != 0 {
		t.Errorf("single-device gang priced %v", got)
	}

	island := []int{0, 1, 2, 3}
	if got, want := PriceGang(topo, island, bytes, DefaultBuckets),
		GangAllReduce(topo.SlowestLink(island), bytes, 4, DefaultBuckets); got != want {
		t.Errorf("island gang priced %v, want %v", got, want)
	}

	// Dropping a member from an NVLink island keeps the tier but
	// shrinks the ring: the survivors' price is a fresh 3-wide pricing,
	// never a stale 4-wide one.
	survivors := []int{0, 1, 3}
	got := PriceGang(topo, survivors, bytes, DefaultBuckets)
	if want := GangAllReduce(topo.SlowestLink(survivors), bytes, 3, DefaultBuckets); got != want {
		t.Errorf("survivor gang priced %v, want %v", got, want)
	}
	if full := PriceGang(topo, island, bytes, DefaultBuckets); got >= full {
		t.Errorf("3 survivors cost %v, not below the 4-wide %v", got, full)
	}

	// A gang spanning islands prices by the slower tier, so losing the
	// only cross-island member makes the survivors strictly cheaper.
	spanning := []int{2, 3, 4}
	inIsland := []int{2, 3}
	if a, b := PriceGang(topo, spanning, bytes, DefaultBuckets),
		PriceGang(topo, inIsland, bytes, DefaultBuckets); b >= a {
		t.Errorf("intra-island survivors %v not cheaper than spanning gang %v", b, a)
	}
}
