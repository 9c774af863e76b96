package tcache

// Cross-job tensor reservation sharing. The per-job Cache above keeps
// one job's tensors warm; Shared is the device-level complement: a
// registry of reservations keyed by shape+dtype, so identical
// workspace and activation shapes from different co-tenant jobs reuse
// ONE slab instead of each reserving its own. The insight is the same
// one TENSILE exploits across workloads: a functional tensor's slab is
// content-free between uses — on a device whose compute engine runs
// one co-tenant iteration at a time, the running job is the only one
// whose functional shapes are materialized, so a shape both tenants
// declare never needs two reservations.
//
// Shared is pure bookkeeping, like Cache: the device planner
// (internal/memplan) consults it for reservation accounting; no bytes
// move here. All state is a deterministic function of the acquire/
// release history, and every aggregate is maintained incrementally so
// queries are O(1).

import "fmt"

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

// slab is one shared reservation: a shape's footprint and how many
// tenants currently hold it. Same key implies same bytes (the key
// covers dims and width), so the footprint never changes over a slab's
// lifetime.
type slab struct {
	bytes int64
	refs  int
}

// Shared is the cross-job reservation registry for one device.
type Shared struct {
	slabs map[uint64]slab

	// reserved is Σ slab bytes (each shape charged once); saved is
	// Σ (refs-1)×bytes — the capacity co-tenancy did not have to
	// reserve twice.
	reserved int64
	saved    int64
}

// NewShared returns an empty registry.
func NewShared() *Shared {
	return &Shared{slabs: make(map[uint64]slab)}
}

// Acquire records one tenant's reservation of the keyed shape and
// reports whether an existing slab was reused (true) or a new one
// created (false). bytes must match the key's footprint; a mismatch is
// an error because it means two different shapes collided on a key or
// a caller derived bytes inconsistently.
func (s *Shared) Acquire(key uint64, bytes int64) (bool, error) {
	if bytes <= 0 {
		return false, fmt.Errorf("tcache: shared acquire of %d bytes", bytes)
	}
	if sl, ok := s.slabs[key]; ok {
		if sl.bytes != bytes {
			return false, fmt.Errorf("tcache: shared key %#x acquired at %d bytes, held at %d", key, bytes, sl.bytes)
		}
		sl.refs++
		s.slabs[key] = sl
		s.saved += bytes
		return true, nil
	}
	s.slabs[key] = slab{bytes: bytes, refs: 1}
	s.reserved += bytes
	return false, nil
}

// Release drops one tenant's reservation; the slab disappears with its
// last holder. Releasing an unheld key is an error — it means acquire/
// release bookkeeping diverged upstream.
func (s *Shared) Release(key uint64) error {
	sl, ok := s.slabs[key]
	if !ok {
		return fmt.Errorf("tcache: shared release of unheld key %#x", key)
	}
	sl.refs--
	if sl.refs == 0 {
		s.reserved -= sl.bytes
		delete(s.slabs, key)
		return nil
	}
	s.saved -= sl.bytes
	s.slabs[key] = sl
	return nil
}

// Refs returns the number of tenants holding the key (0 when unheld).
func (s *Shared) Refs(key uint64) int { return s.slabs[key].refs }

// Len returns the number of live slabs.
func (s *Shared) Len() int { return len(s.slabs) }

// ReservedBytes is the capacity the shared slabs occupy: each shape
// charged once, regardless of how many tenants hold it.
func (s *Shared) ReservedBytes() int64 { return s.reserved }

// SavedBytes is the capacity sharing avoided: Σ (holders-1) × bytes
// over all slabs. With a single tenant it is zero.
func (s *Shared) SavedBytes() int64 { return s.saved }
