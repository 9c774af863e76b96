// Package memplan is the device-level memory planner for co-resident
// training jobs: the lift of per-job adaptive planning (core's adaptive)
// to tensor-granularity planning ACROSS jobs, the scenario TENSILE
// targets. Where admission-by-isolation reserves every job's solo peak
// for its whole residency (sum-of-isolated-peaks), the planner exploits
// two structural facts of a shared device:
//
//  1. The compute engine is serial: co-tenant iterations interleave one
//     at a time, and a job's functional tensors (activations, gradients,
//     workspaces) are freed at its iteration epilogue. Between its
//     iterations a job only pins its persistent floor (parameters,
//     parameter gradients, auxiliary state). So the device never needs
//     Σ peaks — it needs the worst case over the running job of
//     (that job's peak + the parked co-tenants' floors).
//
//  2. Functional tensor slabs are content-free between uses: a shape
//     two co-tenants both declare (identical workspace or activation
//     shapes, keyed shape+dtype via ShapeKey) needs ONE shared
//     reservation, not one per job — the running job is the only one
//     with the shape materialized.
//
// Beyond that, each device owns one shared host-side spill pool: when
// even the floors do not fit, parked jobs' floors are spilled to the
// host in a single global order (largest floor first, ties by job ID),
// and each spilled job pays a per-iteration swap penalty of one
// round-trip of its floor over the host link — the AccUDNN economics:
// strictly more co-tenants admitted, each iteration possibly slower.
//
// Every planner decision is a pure function of the member demand SET
// (members are folded in job-ID order, not insertion order), so a
// snapshot-restored planner that re-admits the same members reproduces
// the same grants bit for bit, and two replays of the same trace make
// identical decisions at any co-tenancy level — determinism is
// load-bearing for the never-OOM admission guarantee.
package memplan

import (
	"fmt"
	"slices"
	"strings"

	"repro/internal/hw"
	"repro/internal/sim"
)

// ShapeKey identifies a tensor shape + element byte width. Two tensors
// with equal keys are interchangeable as reservations: same dims, same
// dtype width, hence the same footprint. The key is FNV-1a over the
// dimensions and width, so it is stable across processes and replays.
func ShapeKey(n, c, h, w, width int) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	k := uint64(offset64)
	for _, v := range [...]int{n, c, h, w, width} {
		k ^= uint64(uint32(v))
		k *= prime64
	}
	return k
}

// TensorDemand is one tensor-granularity demand entry: a shareable
// functional shape the job materializes every iteration.
type TensorDemand struct {
	// Key identifies shape+dtype (ShapeKey); equal keys mean
	// interchangeable reservations of equal Bytes.
	Key   uint64
	Bytes int64
}

// Demand is one job's declared memory demand on a device, extracted
// from the deterministic dry run that also prices admission.
type Demand struct {
	// Job names the tenant; unique on a device.
	Job string
	// PeakBytes is the solo running peak (dry-run exact, includes the
	// floor); FloorBytes the incompressible between-iteration residue
	// (persistent state).
	PeakBytes  int64
	FloorBytes int64
	// Tensors lists the job's largest shareable functional shapes.
	Tensors []TensorDemand
}

// Grant is the planner's answer to one member's demand under the
// current co-tenancy.
type Grant struct {
	// SpilledBytes is how much of the job's floor is parked in the
	// device's host-side spill pool while the job is between
	// iterations (0 = fully resident).
	SpilledBytes int64
	// SwapPenalty is the per-iteration cost of the spill: one
	// round-trip of the spilled bytes over the host link.
	SwapPenalty sim.Duration
	// SharedBytes is how much of the job's peak rides on reservations
	// shared with co-tenants (lifted into the device-wide slab charge).
	SharedBytes int64
}

// Planner owns one device's co-tenancy plan: the member demands, the
// shared-slab accounting, the spill-pool allocation and the derived
// reservation requirement.
type Planner struct {
	cap      int64
	spillCap int64
	link     hw.LinkSpec

	members []Demand // maintained sorted by Job ascending
	state   planState

	// Scratch reused by every plan so a Headroom or HeadroomWithout
	// probe allocates nothing once warm. It is storage only: plan
	// overwrites or clears every part before reading it, so no plan
	// depends on an earlier one. view lists the member set being
	// planned in job-ID order; cand holds a probed demand while it is
	// in the view.
	view    []*Demand
	cand    Demand
	slabs   map[uint64]slab
	effPeak []int64
	spilled []bool
}

// slab is one shared shape's refcount: the first holder's bytes, the
// number of members declaring the key at those bytes, and whether the
// device-wide charge has taken it yet.
type slab struct {
	bytes   int64
	refs    int
	charged bool
}

// planState is the derived plan for one member set.
type planState struct {
	requirement int64
	spillUsed   int64
	slabBytes   int64
	sharedSaved int64
	feasible    bool
	// grants is parallel to the planned member set; probes leave it nil.
	grants []Grant
}

// New returns a planner for a device with the given GPU capacity, host
// spill-pool capacity, and host link.
func New(capBytes, spillBytes int64, link hw.LinkSpec) (*Planner, error) {
	if capBytes <= 0 {
		return nil, fmt.Errorf("memplan: device capacity must be positive, got %d", capBytes)
	}
	if spillBytes < 0 {
		return nil, fmt.Errorf("memplan: spill pool capacity must be non-negative, got %d", spillBytes)
	}
	if link.BytesPerSec <= 0 {
		link = hw.PCIePinned
	}
	return &Planner{cap: capBytes, spillCap: spillBytes, link: link,
		state: planState{feasible: true}, slabs: make(map[uint64]slab)}, nil
}

// plan derives the co-tenancy plan for the member set in p.view, which
// lists it in job-ID order: the fold order is fixed by the IDs, so the
// same set always yields the same plan. When grants is non-nil it must
// be as long as the view and receives each member's grant, parallel to
// it.
func (p *Planner) plan(grants []Grant) planState {
	ordered := p.view
	st := planState{feasible: true, grants: grants}
	if len(ordered) == 0 {
		return st
	}

	// Pass 1: cross-job shared reservations. Every member's shareable
	// shapes are refcounted by key; shapes held by ≥2 tenants are
	// lifted out of each holder's peak into one device-wide slab
	// charge. The first holder's bytes define a key's slab, and a
	// declaration of the same key at other bytes shares nothing.
	slabs := p.slabs
	clear(slabs)
	for _, m := range ordered {
		for _, td := range m.Tensors {
			sl, ok := slabs[td.Key]
			switch {
			case !ok:
				slabs[td.Key] = slab{bytes: td.Bytes, refs: 1}
			case sl.bytes == td.Bytes:
				sl.refs++
				slabs[td.Key] = sl
				st.sharedSaved += td.Bytes
			}
		}
	}
	n := len(ordered)
	p.effPeak = slices.Grow(p.effPeak[:0], n)[:n]
	effPeak := p.effPeak
	for i, m := range ordered {
		var lifted int64
		for _, td := range m.Tensors {
			if sl := slabs[td.Key]; sl.refs >= 2 {
				lifted += td.Bytes
				if !sl.charged {
					sl.charged = true
					slabs[td.Key] = sl
					st.slabBytes += td.Bytes
				}
			}
		}
		effPeak[i] = max(m.PeakBytes-lifted, m.FloorBytes)
		if grants != nil {
			grants[i] = Grant{SharedBytes: lifted}
		}
	}

	// Pass 2: spill selection. Start with every floor resident;
	// requirement R = slab + max_j (effPeak_j + Σ floors of the OTHER
	// resident members). While R exceeds capacity, spill the resident
	// member with the largest floor (ties to the lower job ID) into
	// the host pool, which removes its floor from every other member's
	// term at the price of a per-iteration swap round-trip.
	p.spilled = slices.Grow(p.spilled[:0], n)[:n]
	spilled := p.spilled
	clear(spilled)
	requirement := func() int64 {
		var floors int64
		for i, m := range ordered {
			if !spilled[i] {
				floors += m.FloorBytes
			}
		}
		var worst int64
		for i, m := range ordered {
			term := effPeak[i] + floors
			if !spilled[i] {
				term -= m.FloorBytes
			}
			if term > worst {
				worst = term
			}
		}
		return st.slabBytes + worst
	}
	r := requirement()
	for r > p.cap {
		victim := -1
		for i, m := range ordered {
			if spilled[i] || m.FloorBytes <= 0 {
				continue
			}
			if st.spillUsed+m.FloorBytes > p.spillCap {
				continue
			}
			if victim == -1 || m.FloorBytes > ordered[victim].FloorBytes {
				victim = i
			}
		}
		if victim == -1 {
			break
		}
		spilled[victim] = true
		st.spillUsed += ordered[victim].FloorBytes
		r = requirement()
	}
	st.requirement = r
	st.feasible = r <= p.cap

	if grants != nil {
		for i, m := range ordered {
			if spilled[i] {
				grants[i].SpilledBytes = m.FloorBytes
				grants[i].SwapPenalty = 2 * p.link.TransferTime(m.FloorBytes)
			}
		}
	}
	return st
}

// setView lists in p.view, in job-ID order, every member other than
// cand's job that exclude keeps (all of them when exclude is nil), and
// cand itself when it is non-nil.
func (p *Planner) setView(cand *Demand, exclude func(job string) bool) {
	p.view = p.view[:0]
	for i := range p.members {
		m := &p.members[i]
		if cand != nil && cand.Job < m.Job {
			p.view = append(p.view, cand)
			cand = nil
		}
		if cand != nil && m.Job == cand.Job || exclude != nil && exclude(m.Job) {
			continue
		}
		p.view = append(p.view, m)
	}
	if cand != nil {
		p.view = append(p.view, cand)
	}
}

// validate rejects malformed demands before they can corrupt the plan.
func validate(d Demand) error {
	if d.Job == "" {
		return fmt.Errorf("memplan: demand without a job id")
	}
	if d.PeakBytes <= 0 {
		return fmt.Errorf("memplan: job %s: peak must be positive, got %d", d.Job, d.PeakBytes)
	}
	if d.FloorBytes < 0 || d.FloorBytes > d.PeakBytes {
		return fmt.Errorf("memplan: job %s: floor %d outside [0, peak %d]", d.Job, d.FloorBytes, d.PeakBytes)
	}
	var tb int64
	for _, td := range d.Tensors {
		if td.Bytes <= 0 {
			return fmt.Errorf("memplan: job %s: tensor demand of %d bytes", d.Job, td.Bytes)
		}
		tb += td.Bytes
	}
	if tb > d.PeakBytes {
		return fmt.Errorf("memplan: job %s: shareable tensors (%d bytes) exceed the peak (%d)", d.Job, tb, d.PeakBytes)
	}
	return nil
}

// find returns the member index of job, or -1.
func (p *Planner) find(job string) int {
	i, ok := p.search(job)
	if !ok {
		return -1
	}
	return i
}

// search returns job's position in the sorted member list and whether
// it is a member there.
func (p *Planner) search(job string) (int, bool) {
	return slices.BinarySearchFunc(p.members, job, func(m Demand, job string) int {
		return strings.Compare(m.Job, job)
	})
}

// Headroom reports the device capacity left after hypothetically
// admitting d alongside the current members, and whether the combined
// plan is feasible at all. It never mutates the plan. A negative
// headroom is never returned: ok=false covers infeasibility.
func (p *Planner) Headroom(d Demand) (int64, bool) {
	if err := validate(d); err != nil {
		return 0, false
	}
	if p.find(d.Job) >= 0 {
		return 0, false
	}
	return p.probe(d, nil)
}

// HeadroomWithout is Headroom with some members hypothetically evicted
// — the preemption-viability probe: would d fit if every member the
// exclude predicate names were vacated?
func (p *Planner) HeadroomWithout(exclude func(job string) bool, d Demand) (int64, bool) {
	if err := validate(d); err != nil {
		return 0, false
	}
	return p.probe(d, exclude)
}

// probe plans d beside the members exclude keeps, without grants, and
// reports d's headroom.
func (p *Planner) probe(d Demand, exclude func(job string) bool) (int64, bool) {
	p.cand = d
	p.setView(&p.cand, exclude)
	st := p.plan(nil)
	p.cand = Demand{}
	if !st.feasible {
		return 0, false
	}
	return p.cap - st.requirement, true
}

// Admit adds d to the member set and replans. It fails — leaving the
// plan untouched — when the combined set cannot fit even with the
// spill pool: admission control must have probed Headroom first, so a
// failure here is a caller bug surfacing, not a scheduling outcome.
func (p *Planner) Admit(d Demand) (Grant, error) {
	if err := validate(d); err != nil {
		return Grant{}, err
	}
	i, dup := p.search(d.Job)
	if dup {
		return Grant{}, fmt.Errorf("memplan: job %s already admitted", d.Job)
	}
	p.cand = d
	p.setView(&p.cand, nil)
	st := p.plan(make([]Grant, len(p.view)))
	p.cand = Demand{}
	if !st.feasible {
		return Grant{}, fmt.Errorf("memplan: job %s does not fit: requirement %d exceeds capacity %d (spill pool %d/%d)",
			d.Job, st.requirement, p.cap, st.spillUsed, p.spillCap)
	}
	p.members = slices.Insert(p.members, i, d)
	p.state = st
	return st.grants[i], nil
}

// Release removes a member and replans.
func (p *Planner) Release(job string) error {
	i := p.find(job)
	if i < 0 {
		return fmt.Errorf("memplan: release of unknown job %s", job)
	}
	p.members = slices.Delete(p.members, i, i+1)
	p.setView(nil, nil)
	p.state = p.plan(make([]Grant, len(p.view)))
	return nil
}

// Requirement is the device-wide GPU reservation the current plan
// needs: the shared slabs plus the worst case over the running member.
func (p *Planner) Requirement() int64 { return p.state.requirement }

// SpillUsed is the host spill pool occupancy.
func (p *Planner) SpillUsed() int64 { return p.state.spillUsed }

// SharedSavedBytes is the capacity cross-job slab sharing avoided
// reserving twice.
func (p *Planner) SharedSavedBytes() int64 { return p.state.sharedSaved }

// Grant returns the current grant for a member.
func (p *Planner) Grant(job string) (Grant, bool) {
	i := p.find(job)
	if i < 0 {
		return Grant{}, false
	}
	return p.state.grants[i], true
}

// SwapPenalty is the per-iteration cost of the member's spilled floor
// (zero for resident members and unknown jobs).
func (p *Planner) SwapPenalty(job string) sim.Duration {
	g, _ := p.Grant(job)
	return g.SwapPenalty
}
