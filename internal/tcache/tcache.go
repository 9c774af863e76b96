// Package tcache implements the LRU Tensor Cache of §3.3.2 (the
// paper's Algorithm 2). The cache exploits the temporal locality of
// back-propagation — the head-to-tail then tail-to-head sweep makes
// the most recently used tensors the earliest reused — to keep tensors
// on GPU DRAM and avoid offload/prefetch traffic entirely whenever the
// working set fits. Tensors locked by an in-flight computation are
// never eviction candidates.
//
// LRU is the only replacement policy. FIFO and MRU were measured
// against it and dropped; DESIGN.md §2 records the comparison.
//
// The cache is pure bookkeeping: the executor owns the memory pool and
// the DMA engines, and consults the cache for hit/miss decisions and
// eviction victims.
package tcache

import (
	"slices"

	"repro/internal/tensor"
)

// Stats counts cache activity.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// EvictedBytes is the offload traffic caused by evictions.
	EvictedBytes int64
}

// none marks the end of the recency list.
const none = -1

// entry is one row of the cache's table, indexed by tensor ID: the
// tensor and its neighbours in the intrusive recency list, as tensor
// IDs. Tensor IDs are dense per program, so the table is a slice and
// steady-state insert/remove traffic neither hashes nor allocates.
type entry struct {
	t          *tensor.Tensor
	prev, next int32
	in         bool
}

// Cache is a recency list of GPU-resident tensors; the front is the
// most recently used (Alg. 2's MFU position). Use New, or Reset a
// cache before its first use.
type Cache struct {
	entries     []entry
	front, back int32 // tensor IDs; none when empty
	n           int
	stats       Stats

	// victims is the scratch buffer Victims returns; the caller evicts
	// its contents before the next pressure scan.
	victims []*tensor.Tensor
}

// New returns an empty LRU cache.
func New() *Cache {
	c := new(Cache)
	c.Reset()
	return c
}

// Reset empties the cache and zeroes its counters, as New would, but
// keeps the storage of its table for reuse.
func (c *Cache) Reset() {
	c.entries = c.entries[:0]
	c.front, c.back, c.n = none, none, 0
	c.stats = Stats{}
}

// Len returns the number of cached tensors.
func (c *Cache) Len() int { return c.n }

// has reports whether tensor id is cached.
func (c *Cache) has(id int) bool { return id < len(c.entries) && c.entries[id].in }

// unlink detaches row id from the recency list.
func (c *Cache) unlink(id int32) {
	e := &c.entries[id]
	if e.prev != none {
		c.entries[e.prev].next = e.next
	} else {
		c.front = e.next
	}
	if e.next != none {
		c.entries[e.next].prev = e.prev
	} else {
		c.back = e.prev
	}
}

// pushFront makes row id the most recently used entry.
func (c *Cache) pushFront(id int32) {
	e := &c.entries[id]
	e.prev, e.next = none, c.front
	if c.front != none {
		c.entries[c.front].prev = id
	}
	c.front = id
	if c.back == none {
		c.back = id
	}
}

func (c *Cache) moveToFront(id int32) {
	if c.front == id {
		return
	}
	c.unlink(id)
	c.pushFront(id)
}

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Contains reports whether the tensor is cached, without touching its
// recency.
func (c *Cache) Contains(t *tensor.Tensor) bool { return c.has(t.ID) }

// Check is Alg. 2's lookup: on a hit the tensor moves to the recency
// front and true is returned; on a miss false is returned and the
// caller is expected to materialize the tensor and call In.
func (c *Cache) Check(t *tensor.Tensor) bool {
	if c.has(t.ID) {
		c.moveToFront(int32(t.ID))
		c.stats.Hits++
		return true
	}
	c.stats.Misses++
	return false
}

// In inserts a tensor at the front (Alg. 2's LRU.in). The tensor is
// unlocked on insertion; the executing layer locks its dependents
// separately.
func (c *Cache) In(t *tensor.Tensor) {
	if c.has(t.ID) {
		c.moveToFront(int32(t.ID))
		return
	}
	t.Locked = false
	if k := len(c.entries); t.ID >= k {
		c.entries = slices.Grow(c.entries, t.ID+1-k)[:t.ID+1]
		clear(c.entries[k:])
	}
	e := &c.entries[t.ID]
	e.t, e.in = t, true
	c.n++
	c.pushFront(int32(t.ID))
}

// Remove drops a tensor from the cache without counting an eviction
// (used when liveness frees a dead tensor).
func (c *Cache) Remove(t *tensor.Tensor) {
	if c.has(t.ID) {
		c.unlink(int32(t.ID))
		c.entries[t.ID].in = false
		c.n--
	}
}

// Victims returns the least recently used unlocked tensors whose
// combined footprint reaches need bytes (Alg. 2's LRU.out scan from
// the recency tail). The bool reports whether enough unlocked bytes
// exist; the returned tensors are NOT removed — the caller offloads
// them and then calls Remove, counting the eviction via Evicted. The
// returned slice is scratch, valid until the next Victims call.
func (c *Cache) Victims(need int64) ([]*tensor.Tensor, bool) {
	victims := c.victims[:0]
	var freed int64
	for id := c.back; id != none && freed < need; id = c.entries[id].prev {
		t := c.entries[id].t
		if t.Locked {
			continue
		}
		victims = append(victims, t)
		freed += t.Bytes()
	}
	c.victims = victims
	if freed < need {
		return nil, false
	}
	return victims, true
}

// Evicted records that a victim was offloaded and removes it.
func (c *Cache) Evicted(t *tensor.Tensor) {
	c.Remove(t)
	c.stats.Evictions++
	c.stats.EvictedBytes += t.Bytes()
}

// Tensors returns the cached tensors from MRU to LRU (for tests and
// debugging).
func (c *Cache) Tensors() []*tensor.Tensor {
	out := make([]*tensor.Tensor, 0, c.n)
	for id := c.front; id != none; id = c.entries[id].next {
		out = append(out, c.entries[id].t)
	}
	return out
}
