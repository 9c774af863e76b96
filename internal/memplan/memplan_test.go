package memplan

import (
	"fmt"
	"slices"
	"strings"
	"testing"

	"repro/internal/hw"
)

const gib = int64(1) << 30

// demand builds a simple member: peak/floor in GiB, no shareable tensors.
func demand(job string, peakGiB, floorGiB int64) Demand {
	return Demand{Job: job, PeakBytes: peakGiB * gib, FloorBytes: floorGiB * gib}
}

func mustPlanner(t *testing.T, capGiB, spillGiB int64) *Planner {
	t.Helper()
	p, err := New(capGiB*gib, spillGiB*gib, hw.PCIePinned)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestAdmitBeatsIsolatedReservation(t *testing.T) {
	// Two jobs: peak 7 GiB, floor 1 GiB each, on a 12 GiB device.
	// Sum-of-isolated-peaks (14 GiB) rejects the second; serial-engine
	// planning needs max(7+1, 7+1) = 8 GiB — both fit with no spill.
	p := mustPlanner(t, 12, 16)
	for _, j := range []string{"a", "b"} {
		if _, ok := p.Headroom(demand(j, 7, 1)); !ok {
			t.Fatalf("job %s should fit", j)
		}
		g, err := p.Admit(demand(j, 7, 1))
		if err != nil {
			t.Fatal(err)
		}
		if g.SpilledBytes != 0 || g.SwapPenalty != 0 {
			t.Fatalf("job %s spilled without memory pressure: %+v", j, g)
		}
	}
	if got, want := p.Requirement(), 8*gib; got != want {
		t.Fatalf("requirement %d, want %d", got, want)
	}
	if p.Requirement() >= 14*gib {
		t.Fatal("co-tenant plan should undercut sum-of-isolated-peaks")
	}
}

func TestSpillUnlocksAdmissionAndPricesSwap(t *testing.T) {
	// Three jobs of peak 6 / floor 3 on a 12 GiB device: resident floors
	// alone make R = 6 + 3 + 3 = 12... with a fourth (R = 6+9 = 15) the
	// planner must park floors in the host pool and price the swap.
	p := mustPlanner(t, 12, 16)
	for i := 0; i < 3; i++ {
		if _, err := p.Admit(demand(fmt.Sprintf("j%d", i), 6, 3)); err != nil {
			t.Fatal(err)
		}
	}
	if p.SpillUsed() != 0 {
		t.Fatalf("no spill expected at 3 tenants, got %d", p.SpillUsed())
	}
	g, err := p.Admit(demand("j3", 6, 3))
	if err != nil {
		t.Fatalf("spill pool should unlock the fourth tenant: %v", err)
	}
	_ = g
	if p.Requirement() > 12*gib {
		t.Fatalf("requirement %d exceeds capacity after spill", p.Requirement())
	}
	if p.SpillUsed() == 0 {
		t.Fatal("fourth tenant should have forced a floor into the spill pool")
	}
	// Exactly the spilled members pay a swap penalty: 2 round-trips of
	// their floor over the link.
	var spilled int
	for i := 0; i < 4; i++ {
		j := fmt.Sprintf("j%d", i)
		gr, ok := p.Grant(j)
		if !ok {
			t.Fatalf("missing grant for %s", j)
		}
		if gr.SpilledBytes > 0 {
			spilled++
			want := 2 * hw.PCIePinned.TransferTime(gr.SpilledBytes)
			if gr.SwapPenalty != want {
				t.Fatalf("%s swap penalty %v, want %v", j, gr.SwapPenalty, want)
			}
		} else if gr.SwapPenalty != 0 {
			t.Fatalf("resident %s has a swap penalty", j)
		}
	}
	if spilled == 0 {
		t.Fatal("no member records a spilled floor")
	}
}

func TestSpillPoolExhaustionRejects(t *testing.T) {
	// Tiny spill pool: once it is full, further tenants must be refused
	// (never-OOM: Admit fails rather than over-committing).
	p := mustPlanner(t, 8, 2)
	if _, err := p.Admit(demand("a", 6, 3)); err != nil {
		t.Fatal(err)
	}
	// b needs a 3 GiB floor parked, but the pool holds only 2 GiB: the
	// resident plan (max(6+3, 6+3) = 9 GiB) exceeds the 8 GiB device and
	// no spill candidate fits, so admission must refuse.
	if _, ok := p.Headroom(demand("b", 6, 3)); ok {
		t.Fatal("headroom probe should refuse when the spill pool is too small")
	}
	if _, err := p.Admit(demand("b", 6, 3)); err == nil {
		t.Fatal("admit should refuse when the spill pool is too small")
	}
	if len(p.members) != 1 || p.SpillUsed() != 0 {
		t.Fatalf("failed admit mutated the plan: tenants=%d spill=%d", len(p.members), p.SpillUsed())
	}
}

func TestCrossJobSharingLiftsCommonShapes(t *testing.T) {
	// Two tenants declaring the same 2 GiB workspace shape: the shape is
	// charged once as a device slab and lifted out of both peaks.
	k := ShapeKey(32, 64, 56, 56, 4)
	mkBytes := func(job string, bytes int64) Demand {
		d := demand(job, 6, 1)
		d.Tensors = []TensorDemand{{Key: k, Bytes: bytes}}
		return d
	}
	mk := func(job string) Demand { return mkBytes(job, 2*gib) }
	// The first holder's bytes define the key's slab: a declaration of
	// the same key at other bytes shares nothing.
	p := mustPlanner(t, 16, 0)
	if _, err := p.Admit(mk("a")); err != nil {
		t.Fatal(err)
	}
	if p.SharedSavedBytes() != 0 {
		t.Fatal("a single tenant cannot save anything")
	}
	if g, ok := p.Headroom(mkBytes("m", gib)); !ok || g != 16*gib-7*gib {
		t.Fatalf("mismatched-bytes headroom %d (ok=%v), want %d: R = 6 + 1 with no sharing", g, ok, 9*gib)
	}
	if g, err := p.Admit(mkBytes("m", gib)); err != nil || g.SharedBytes != 0 || p.SharedSavedBytes() != 0 {
		t.Fatalf("mismatched bytes shared: grant %+v, saved %d, err %v", g, p.SharedSavedBytes(), err)
	}
	if err := p.Release("m"); err != nil {
		t.Fatal(err)
	}
	g, err := p.Admit(mk("b"))
	if err != nil {
		t.Fatal(err)
	}
	if g.SharedBytes != 2*gib {
		t.Fatalf("b shared bytes %d, want %d", g.SharedBytes, 2*gib)
	}
	if p.SharedSavedBytes() != 2*gib {
		t.Fatalf("saved %d, want %d", p.SharedSavedBytes(), 2*gib)
	}
	// R = slab(2) + max over j of (effPeak_j + other floors)
	//   = 2 + (6-2) + 1 = 7 GiB. Without sharing it would be 8 GiB.
	if got, want := p.Requirement(), 7*gib; got != want {
		t.Fatalf("requirement %d, want %d", got, want)
	}
}

func TestShapeKeyDistinguishesShapeAndWidth(t *testing.T) {
	a := ShapeKey(32, 3, 224, 224, 4)
	if b := ShapeKey(32, 3, 224, 224, 4); b != a {
		t.Fatalf("same shape hashed differently: %#x vs %#x", a, b)
	}
	for _, other := range []uint64{
		ShapeKey(64, 3, 224, 224, 4),
		ShapeKey(32, 4, 224, 224, 4),
		ShapeKey(32, 3, 225, 224, 4),
		ShapeKey(32, 3, 224, 225, 4),
		ShapeKey(32, 3, 224, 224, 2),
	} {
		if other == a {
			t.Fatalf("distinct shape collided with %#x", a)
		}
	}
}

func TestPlanIsPureFunctionOfMemberSet(t *testing.T) {
	// Admission order must not matter: the plan is derived from the set
	// sorted by job ID, which is what lets snapshot restore re-admit
	// residents in any recorded order and land on identical grants.
	mk := func(order []string) *Planner {
		p := mustPlanner(t, 12, 8)
		for _, j := range order {
			var d Demand
			switch j {
			case "a":
				d = demand("a", 7, 1)
			case "b":
				d = demand("b", 5, 3)
			case "c":
				d = demand("c", 4, 2)
			}
			if _, err := p.Admit(d); err != nil {
				t.Fatalf("admit %s: %v", j, err)
			}
		}
		return p
	}
	p1 := mk([]string{"a", "b", "c"})
	p2 := mk([]string{"c", "a", "b"})
	if p1.Requirement() != p2.Requirement() || p1.SpillUsed() != p2.SpillUsed() {
		t.Fatalf("order-dependent plan: R %d/%d spill %d/%d",
			p1.Requirement(), p2.Requirement(), p1.SpillUsed(), p2.SpillUsed())
	}
	for _, j := range []string{"a", "b", "c"} {
		g1, _ := p1.Grant(j)
		g2, _ := p2.Grant(j)
		if g1 != g2 {
			t.Fatalf("job %s grant differs by admission order: %+v vs %+v", j, g1, g2)
		}
	}
}

func TestSpillOrderLargestFloorFirst(t *testing.T) {
	// Force exactly one spill; the victim must be the largest floor.
	p := mustPlanner(t, 12, 16)
	if _, err := p.Admit(demand("small", 6, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit(demand("big", 6, 4)); err != nil {
		t.Fatal(err)
	}
	// R = max(6+4, 6+1) = 10 ≤ 12: both resident so far.
	if p.SpillUsed() != 0 {
		t.Fatalf("unexpected spill at 2 tenants: %d", p.SpillUsed())
	}
	if _, err := p.Admit(demand("third", 7, 2)); err != nil {
		t.Fatal(err)
	}
	// Resident R would be max(6+6, 6+3, 7+5) = 12 ≤ 12 — still fine.
	if _, err := p.Admit(demand("fourth", 7, 2)); err != nil {
		t.Fatal(err)
	}
	gb, _ := p.Grant("big")
	if gb.SpilledBytes != 4*gib {
		t.Fatalf("largest floor should spill first; big got %+v (spill used %d)", gb, p.SpillUsed())
	}
	gs, _ := p.Grant("small")
	if gs.SpilledBytes != 0 && p.SpillUsed() == 4*gib {
		t.Fatalf("small spilled unnecessarily: %+v", gs)
	}
}

func TestReleaseRestoresHeadroom(t *testing.T) {
	p := mustPlanner(t, 12, 0)
	if _, err := p.Admit(demand("a", 7, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit(demand("b", 7, 1)); err != nil {
		t.Fatal(err)
	}
	big := demand("huge", 11, 2)
	if _, ok := p.Headroom(big); ok {
		t.Fatal("huge job cannot fit alongside a and b")
	}
	if _, ok := p.HeadroomWithout(func(j string) bool { return true }, big); !ok {
		t.Fatal("huge job should fit on an emptied device (preemption probe)")
	}
	if err := p.Release("a"); err != nil {
		t.Fatal(err)
	}
	if err := p.Release("b"); err != nil {
		t.Fatal(err)
	}
	if hr, ok := p.Headroom(big); !ok || hr != 1*gib {
		t.Fatalf("headroom %d ok=%v after releases, want %d", hr, ok, 1*gib)
	}
	if err := p.Release("a"); err == nil {
		t.Fatal("double release should fail")
	}
}

func TestValidation(t *testing.T) {
	p := mustPlanner(t, 12, 0)
	cases := []Demand{
		{},                         // no job
		{Job: "a"},                 // zero peak
		{Job: "a", PeakBytes: -1},  // negative peak
		demandWithFloor("a", 4, 5), // floor > peak
		{Job: "a", PeakBytes: gib, Tensors: []TensorDemand{{Key: 1, Bytes: 0}}},
		{Job: "a", PeakBytes: gib, Tensors: []TensorDemand{{Key: 1, Bytes: 2 * gib}}},
	}
	for i, d := range cases {
		if _, err := p.Admit(d); err == nil {
			t.Fatalf("case %d: invalid demand admitted: %+v", i, d)
		}
		if _, ok := p.Headroom(d); ok {
			t.Fatalf("case %d: invalid demand has headroom", i)
		}
	}
	if _, err := p.Admit(demand("a", 4, 1)); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Admit(demand("a", 4, 1)); err == nil {
		t.Fatal("double admission should fail")
	}
	if _, ok := p.Headroom(demand("a", 4, 1)); ok {
		t.Fatal("headroom probe for an admitted job should fail")
	}
	if _, err := New(0, 0, hw.PCIePinned); err == nil {
		t.Fatal("zero-capacity planner should be rejected")
	}
	if _, err := New(gib, -1, hw.PCIePinned); err == nil {
		t.Fatal("negative spill pool should be rejected")
	}
}

func demandWithFloor(job string, peakGiB, floorGiB int64) Demand {
	return Demand{Job: job, PeakBytes: peakGiB * gib, FloorBytes: floorGiB * gib}
}

// TestRequirementCanFallWhenJobJoins pins why R(S) is no lower bound
// for R(S ∪ {j}): a joining job can push the planner to spill a large
// floor it kept resident before, and the spill lowers every other
// member's term.
func TestRequirementCanFallWhenJobJoins(t *testing.T) {
	p, err := New(15, 100, hw.PCIePinned)
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range []Demand{
		{Job: "A", PeakBytes: 10, FloorBytes: 1},
		{Job: "X", PeakBytes: 5, FloorBytes: 5},
	} {
		if _, err := p.Admit(d); err != nil {
			t.Fatal(err)
		}
	}
	// R = max(A: 10 + 5, X: 5 + 1) = 15, nothing spilled.
	if p.Requirement() != 15 || p.SpillUsed() != 0 {
		t.Fatalf("R = %d, spill %d; want 15 and 0", p.Requirement(), p.SpillUsed())
	}
	if _, err := p.Admit(Demand{Job: "J", PeakBytes: 1, FloorBytes: 1}); err != nil {
		t.Fatal(err)
	}
	// Resident, R would be 10 + 5 + 1 = 16 > 15, so X's floor spills:
	// R = max(A: 10 + 1, X: 5 + 1 + 1, J: 1 + 1) = 11.
	if p.Requirement() != 11 || p.SpillUsed() != 5 {
		t.Fatalf("R = %d, spill %d after J joined; want 11 and 5", p.Requirement(), p.SpillUsed())
	}
}

// genDemands draws a planner shape and a demand pool from seed
// (xorshift64). Sizes are small integers so keys collide often: the
// pool mixes shared keys, the same key at different bytes, floors that
// force spills and spill pools too small to hold them.
func genDemands(seed uint64) (capBytes, spillBytes int64, pool []Demand) {
	x := seed*0x9e3779b97f4a7c15 + 1
	next := func(n int) int {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		return int(x % uint64(n))
	}
	capBytes = int64(20 + next(60))
	spillBytes = int64(next(4) * next(30))
	pool = make([]Demand, 2+next(9))
	for i := range pool {
		peak := int64(4 + next(30))
		d := Demand{Job: fmt.Sprintf("j%02d", next(40)), PeakBytes: peak, FloorBytes: int64(next(int(peak) + 1))}
		budget := peak - d.FloorBytes
		for k := next(4); k > 0; k-- {
			td := TensorDemand{Key: uint64(1 + next(3)), Bytes: int64(1 + next(3))}
			if td.Bytes > budget {
				break
			}
			d.Tensors = append(d.Tensors, td)
			budget -= td.Bytes
		}
		pool[i] = d
	}
	return capBytes, spillBytes, pool
}

// freshPlanner admits set into a new planner in job-ID order and
// returns it, or nil when some admission fails: a subset on the way
// can be infeasible even where the whole set is not, since R can fall
// when a job joins.
func freshPlanner(t *testing.T, capBytes, spillBytes int64, set []Demand) *Planner {
	t.Helper()
	q, err := New(capBytes, spillBytes, hw.PCIePinned)
	if err != nil {
		t.Fatal(err)
	}
	set = slices.Clone(set)
	slices.SortFunc(set, func(a, b Demand) int { return strings.Compare(a.Job, b.Job) })
	for _, d := range set {
		if _, err := q.Admit(d); err != nil {
			return nil
		}
	}
	return q
}

// TestProbesMatchFreshPlanner is the differential check of the probe
// path: over generated demand sets, Headroom and HeadroomWithout
// report exactly the capacity a fresh planner that admits the probed
// set leaves, and refuse exactly the sets it cannot plan. After a
// probed job is admitted, every member's grant equals the fresh
// planner's.
func TestProbesMatchFreshPlanner(t *testing.T) {
	seen := map[string]int{}
	for seed := uint64(1); seed <= 3000; seed++ {
		capBytes, spillBytes, pool := genDemands(seed)
		p, err := New(capBytes, spillBytes, hw.PCIePinned)
		if err != nil {
			t.Fatal(err)
		}
		// Build the member set in pool order, releasing every third
		// admitted job again so members are inserted and removed at
		// every position.
		var members []Demand
		for i, d := range pool[:len(pool)-1] {
			if _, err := p.Admit(d); err != nil {
				continue
			}
			members = append(members, d)
			if i%3 == 2 {
				if err := p.Release(d.Job); err != nil {
					t.Fatal(err)
				}
				members = members[:len(members)-1]
			}
		}
		cand := pool[len(pool)-1]
		name := fmt.Sprintf("seed %d", seed)

		// Headroom: the members plus a job that is not one of them.
		if p.find(cand.Job) < 0 {
			if g, ok := p.Grant(cand.Job); ok || p.SwapPenalty(cand.Job) != 0 {
				t.Fatalf("%s: non-member %s has a grant: %+v", name, cand.Job, g)
			}
			got, ok := p.Headroom(cand)
			set := append(slices.Clone(members), cand)
			if q := freshPlanner(t, capBytes, spillBytes, set); q != nil {
				if want := capBytes - q.Requirement(); !ok || got != want {
					t.Fatalf("%s: Headroom = %d (ok=%v), fresh planner leaves %d", name, got, ok, want)
				}
				seen["fits"]++
				if q.SpillUsed() > 0 {
					seen["spill"]++
				}
				if q.SharedSavedBytes() > 0 {
					seen["shared"]++
				}
				if _, err := p.Admit(cand); err != nil {
					t.Fatalf("%s: admit after a fitting probe: %v", name, err)
				}
				for _, m := range set {
					g, _ := p.Grant(m.Job)
					if want, _ := q.Grant(m.Job); g != want || p.SwapPenalty(m.Job) != want.SwapPenalty {
						t.Fatalf("%s: %s grant %+v, fresh planner grants %+v", name, m.Job, g, want)
					}
				}
				if p.Requirement() != q.Requirement() {
					t.Fatalf("%s: requirement %d after admit, fresh planner %d", name, p.Requirement(), q.Requirement())
				}
				if err := p.Release(cand.Job); err != nil {
					t.Fatal(err)
				}
			} else if freshPlanner(t, capBytes, spillBytes, members) != nil && ok {
				// Every member admits, so only cand's admission failed.
				t.Fatalf("%s: Headroom = %d (ok), fresh planner refuses the set", name, got)
			} else if !ok {
				seen["refused"]++
			}
		} else {
			seen["member"]++
		}

		// HeadroomWithout: drop every member the seed's bits name (and
		// a member sharing the candidate's ID, which the probe replaces).
		bits := seed * 0x2545f4914f6cdd1d
		excluded := func(job string) bool {
			i := slices.IndexFunc(members, func(m Demand) bool { return m.Job == job })
			return i >= 0 && bits>>uint(i)&1 == 1
		}
		var kept []Demand
		for _, m := range members {
			if m.Job != cand.Job && !excluded(m.Job) {
				kept = append(kept, m)
			}
		}
		if len(kept) < len(members) {
			seen["excluded"]++
		}
		got, ok := p.HeadroomWithout(excluded, cand)
		if q := freshPlanner(t, capBytes, spillBytes, append(kept, cand)); q != nil {
			if want := capBytes - q.Requirement(); !ok || got != want {
				t.Fatalf("%s: HeadroomWithout = %d (ok=%v), fresh planner leaves %d", name, got, ok, want)
			}
		} else if freshPlanner(t, capBytes, spillBytes, kept) != nil && ok {
			t.Fatalf("%s: HeadroomWithout = %d (ok), fresh planner refuses the set", name, got)
		}
	}
	for _, k := range []string{"fits", "spill", "shared", "refused", "member", "excluded"} {
		if seen[k] < 20 {
			t.Errorf("generated sets reached %q only %d times (%v)", k, seen[k], seen)
		}
	}
}

// TestProbesAllocateNothing: once warm, a probe reuses the planner's
// scratch and builds no grants.
func TestProbesAllocateNothing(t *testing.T) {
	p := mustPlanner(t, 12, 16)
	k := ShapeKey(32, 64, 56, 56, 4)
	for i := 0; i < 8; i++ {
		d := demand(fmt.Sprintf("j%d", i), 5, 2)
		d.Tensors = []TensorDemand{{Key: k, Bytes: gib}, {Key: uint64(i), Bytes: gib}}
		if _, err := p.Admit(d); err != nil {
			t.Fatal(err)
		}
	}
	if p.SpillUsed() == 0 || p.SharedSavedBytes() == 0 {
		t.Fatal("the probed plan should spill and share")
	}
	cand := demand("j35", 6, 1)
	cand.Tensors = []TensorDemand{{Key: k, Bytes: gib}}
	odd := func(job string) bool { return job[len(job)-1]%2 == 1 }
	for name, probe := range map[string]func(){
		"Headroom":        func() { p.Headroom(cand) },
		"HeadroomWithout": func() { p.HeadroomWithout(odd, cand) },
	} {
		probe()
		if n := testing.AllocsPerRun(100, probe); n != 0 {
			t.Errorf("%s allocates %.0f times per probe", name, n)
		}
	}
}
