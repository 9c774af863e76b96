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

import "repro/internal/tensor"

// Stats counts cache activity.
type Stats struct {
	Hits      int64
	Misses    int64
	Evictions int64
	// EvictedBytes is the offload traffic caused by evictions.
	EvictedBytes int64
}

// node is one entry of the intrusive recency list. Nodes removed from
// the list are recycled through the cache's spare list (chained via
// next), so steady-state insert/remove traffic does not allocate.
type node struct {
	t          *tensor.Tensor
	prev, next *node
}

// Cache is a recency list of GPU-resident tensors; the front is the
// most recently used (Alg. 2's MFU position).
type Cache struct {
	front, back *node
	index       map[int]*node
	spare       *node
	stats       Stats

	// victims is the scratch buffer Victims returns; the caller evicts
	// its contents before the next pressure scan.
	victims []*tensor.Tensor
}

// New returns an empty LRU cache.
func New() *Cache { return &Cache{index: make(map[int]*node)} }

// Len returns the number of cached tensors.
func (c *Cache) Len() int { return len(c.index) }

// unlink detaches n from the recency list without recycling it.
func (c *Cache) unlink(n *node) {
	if n.prev != nil {
		n.prev.next = n.next
	} else {
		c.front = n.next
	}
	if n.next != nil {
		n.next.prev = n.prev
	} else {
		c.back = n.prev
	}
	n.prev, n.next = nil, nil
}

// pushFront makes n the most recently used entry.
func (c *Cache) pushFront(n *node) {
	n.prev, n.next = nil, c.front
	if c.front != nil {
		c.front.prev = n
	}
	c.front = n
	if c.back == nil {
		c.back = n
	}
}

func (c *Cache) moveToFront(n *node) {
	if c.front == n {
		return
	}
	c.unlink(n)
	c.pushFront(n)
}

// Stats returns a copy of the activity counters.
func (c *Cache) Stats() Stats { return c.stats }

// Contains reports whether the tensor is cached, without touching its
// recency.
func (c *Cache) Contains(t *tensor.Tensor) bool {
	_, ok := c.index[t.ID]
	return ok
}

// Check is Alg. 2's lookup: on a hit the tensor moves to the recency
// front and true is returned; on a miss false is returned and the
// caller is expected to materialize the tensor and call In.
func (c *Cache) Check(t *tensor.Tensor) bool {
	if e, ok := c.index[t.ID]; ok {
		c.moveToFront(e)
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
	if e, ok := c.index[t.ID]; ok {
		c.moveToFront(e)
		return
	}
	t.Locked = false
	n := c.spare
	if n != nil {
		c.spare = n.next
		n.next = nil
	} else {
		n = &node{}
	}
	n.t = t
	c.pushFront(n)
	c.index[t.ID] = n
}

// Remove drops a tensor from the cache without counting an eviction
// (used when liveness frees a dead tensor).
func (c *Cache) Remove(t *tensor.Tensor) {
	if e, ok := c.index[t.ID]; ok {
		c.unlink(e)
		delete(c.index, t.ID)
		*e = node{next: c.spare}
		c.spare = e
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
	for e := c.back; e != nil && freed < need; e = e.prev {
		t := e.t
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
	out := make([]*tensor.Tensor, 0, len(c.index))
	for e := c.front; e != nil; e = e.next {
		out = append(out, e.t)
	}
	return out
}
