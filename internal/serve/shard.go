package serve

// A shard owns one slice of the tenant space: its own bounded
// per-tenant admission queues and its own sequencer. Shards never
// share admission state, so submissions to different shards contend
// only on the (short) merge step.

import "sync"

type shard struct {
	idx  int
	mu   sync.Mutex
	cond *sync.Cond

	queues  map[string][]*job
	ring    []string // tenants in first-seen order, the round-robin ring
	rr      int      // ring cursor
	pending int
	stopped bool

	batch []*job // scratch: jobs popped in one sequencing pass
}

func newShard(idx int) *shard {
	sh := &shard{idx: idx, queues: make(map[string][]*job)}
	sh.cond = sync.NewCond(&sh.mu)
	return sh
}

// enqueue appends j to its tenant's queue and returns the 1-based
// position. Caller holds sh.mu.
func (sh *shard) enqueue(tenant string, j *job) int {
	q, known := sh.queues[tenant]
	if !known {
		sh.ring = append(sh.ring, tenant)
	}
	sh.queues[tenant] = append(q, j)
	sh.pending++
	sh.cond.Signal()
	return len(sh.queues[tenant])
}

// position returns j's 1-based place in its tenant queue, or 0 when j
// is no longer queued. Caller holds sh.mu.
func (sh *shard) position(j *job) int {
	for i, q := range sh.queues[j.tenant] {
		if q == j {
			return i + 1
		}
	}
	return 0
}

// sequenceLocked pops up to max jobs (all pending when max <= 0) off
// the shard round-robin — one job per tenant per turn, so no tenant
// can starve the others — and merges them into the request log.
// Caller holds sh.mu and the merge happens under it, so a job that
// has left its shard queue is already in the log by the time anyone
// else can take sh.mu.
func (s *Service) sequenceLocked(sh *shard, max int) int {
	n := 0
	sh.batch = sh.batch[:0]
	for sh.pending > 0 && (max <= 0 || n < max) {
		for len(sh.queues[sh.ring[sh.rr]]) == 0 {
			sh.rr = (sh.rr + 1) % len(sh.ring)
		}
		t := sh.ring[sh.rr]
		sh.rr = (sh.rr + 1) % len(sh.ring)
		q := sh.queues[t]
		j := q[0]
		sh.queues[t] = q[1:]
		sh.pending--
		sh.batch = append(sh.batch, j)
		n++
	}
	if n == 0 {
		return 0
	}
	// The batch takes its log positions under s.mu, in the critical
	// section that appends it.
	s.mu.Lock()
	s.mergeLocked(sh)
	s.mu.Unlock()
	return n
}
