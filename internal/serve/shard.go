package serve

// A shard is one partition of the tenant space: its own bounded
// per-tenant admission queues and round-robin ring. Shards partition
// admission, not locking: every field is guarded by Service.mu, and
// one sequencing pass pops every shard in index order.

type shard struct {
	idx     int
	queues  map[string][]*job
	ring    []string // tenants in first-seen order, the round-robin ring
	rr      int      // ring cursor
	pending int
}

// enqueue appends j to its tenant's queue and returns the 1-based
// position.
func (sh *shard) enqueue(j *job) int {
	q, known := sh.queues[j.tenant]
	if !known {
		sh.ring = append(sh.ring, j.tenant)
	}
	sh.queues[j.tenant] = append(q, j)
	sh.pending++
	return len(q) + 1
}

// position returns j's 1-based place in its tenant queue, or 0 when j
// is no longer queued.
func (sh *shard) position(j *job) int {
	for i, q := range sh.queues[j.tenant] {
		if q == j {
			return i + 1
		}
	}
	return 0
}

// pop appends queued jobs to batch round-robin — one job per tenant per
// turn, so no tenant can starve the others — until the shard is empty
// or batch holds max jobs (no cap when max <= 0).
func (sh *shard) pop(batch []*job, max int) []*job {
	for sh.pending > 0 && (max <= 0 || len(batch) < max) {
		for len(sh.queues[sh.ring[sh.rr]]) == 0 {
			sh.rr = (sh.rr + 1) % len(sh.ring)
		}
		t := sh.ring[sh.rr]
		sh.rr = (sh.rr + 1) % len(sh.ring)
		q := sh.queues[t]
		batch = append(batch, q[0])
		sh.queues[t] = q[1:]
		sh.pending--
	}
	return batch
}

// sequenceLocked pops up to max queued jobs (all of them when max <= 0)
// shard by shard in index order and merges the pass into the request
// log as one batch. Caller holds s.mu.
func (s *Service) sequenceLocked(max int) int {
	s.batch = s.batch[:0]
	for _, sh := range s.shards {
		s.batch = sh.pop(s.batch, max)
	}
	if len(s.batch) > 0 {
		s.mergeLocked()
	}
	return len(s.batch)
}
