package serve

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"repro/internal/workload"
)

// LoadConfig drives RunLoad: N concurrent clients submitting jobs from
// a template set against one service.
type LoadConfig struct {
	// Target is the service under load.
	Target *Client
	// Clients is the number of concurrent submitters (default 4); each
	// submits as its own tenant ("client00", "client01", ...).
	Clients int
	// JobsPerClient is each client's submission count (default 8).
	JobsPerClient int
	// Templates supplies the job shapes, cycled per client with an
	// offset so tenants mix shapes; nil means the bundled static +
	// dynamic traces.
	Templates []workload.TraceJob
	// SubmitRetries caps the retries of one submission after
	// backpressure (default 50) — backpressure, not failure. Each
	// submission goes through Client.SubmitRetry with
	// RetryPolicy{MaxAttempts: SubmitRetries+1, BaseDelay: 2ms,
	// MaxDelay: 100ms}, so a Retry-After hint is capped at 100ms. A
	// submission that runs out of attempts counts as both Failed and
	// Exhausted.
	SubmitRetries int
	// Idempotent attaches a deterministic IdempotencyKey to every
	// submission and retries transport failures too (a replayed
	// submission dedupes server-side instead of double-sequencing), so
	// the load survives a service crash and restart mid-run.
	Idempotent bool
	// ThinkTime spaces one client's consecutive submissions; 0 submits
	// back to back.
	ThinkTime time.Duration
	// Drain drains the service after all submissions.
	Drain bool
}

// loadBaseDelay seeds the load generator's backoff after a refused
// submission.
const loadBaseDelay = 2 * time.Millisecond

// LoadReport is RunLoad's outcome: counts, wall-clock throughput and
// submission latency percentiles. A submission's latency spans its
// whole SubmitRetry call, backoff sleeps included; without
// backpressure that is the latency of its single attempt.
type LoadReport struct {
	Submitted   int // successful submissions
	QuotaDenied int // submissions refused by tenant quota
	Failed      int // submissions lost after retries or on other errors
	Retries     int // retry sleeps taken across all submissions
	Exhausted   int // submissions that ran out of retry attempts
	Deduped     int // submissions answered from the idempotency index

	Elapsed    time.Duration
	Throughput float64 // successful submissions per wall-clock second

	P50, P90, P99, Max time.Duration // submission latency

	// Shards breaks the successful submissions down by the shard that
	// sequenced them (from the submit response), ordered by shard index.
	// Single-shard services report one row.
	Shards []ShardLoad

	// Drained holds the drain summary when LoadConfig.Drain is set.
	Drained *DrainSummary
}

// ShardLoad aggregates the successful submissions that landed on one
// shard: the count and that shard's submission latency percentiles.
type ShardLoad struct {
	Shard     int
	Submitted int
	P50, P99  time.Duration
}

// DefaultTemplates returns the bundled static and dynamic traces as a
// single template set — every shape the evaluation traces exercise,
// including the deliberately oversized job the scheduler must reject.
func DefaultTemplates() []workload.TraceJob {
	return append(workload.DefaultTrace(), workload.DefaultDynamicTrace()...)
}

// RunLoad fires cfg.Clients concurrent clients at the target and
// aggregates their outcomes. The template cycle is deterministic per
// client, so two equal-config runs submit the same job population
// (the sequenced order — and thus the request log — still depends on
// arrival interleaving; determinism of results given the log is the
// service's job).
func RunLoad(cfg LoadConfig) (*LoadReport, error) {
	if cfg.Target == nil {
		return nil, fmt.Errorf("serve: loadgen needs a target client")
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 4
	}
	if cfg.JobsPerClient <= 0 {
		cfg.JobsPerClient = 8
	}
	if cfg.Templates == nil {
		cfg.Templates = DefaultTemplates()
	}
	if cfg.SubmitRetries <= 0 {
		cfg.SubmitRetries = 50
	}
	pol := RetryPolicy{
		MaxAttempts: cfg.SubmitRetries + 1,
		BaseDelay:   loadBaseDelay,
		MaxDelay:    50 * loadBaseDelay,
	}

	// Each submission records its outcome in its own slot; the tally
	// runs once every client is done.
	type outcome struct {
		st      *JobStatus
		retries int
		lat     time.Duration
		err     error
	}
	outs := make([]outcome, cfg.Clients*cfg.JobsPerClient)
	start := time.Now()
	var wg sync.WaitGroup
	for ci := 0; ci < cfg.Clients; ci++ {
		wg.Add(1)
		go func(ci int) {
			defer wg.Done()
			tenant := fmt.Sprintf("client%02d", ci)
			for k := 0; k < cfg.JobsPerClient; k++ {
				tpl := cfg.Templates[(ci+k)%len(cfg.Templates)]
				req := SubmitRequest{
					Tenant:     tenant,
					ID:         fmt.Sprintf("j%03d", k),
					Network:    tpl.Network,
					Batch:      tpl.Batch,
					Manager:    tpl.Manager,
					Priority:   tpl.Priority,
					Iterations: tpl.Iterations,
				}
				if len(tpl.BatchSchedule) > 1 {
					req.Schedule = tpl.BatchSchedule.String()
					req.Batch = 0
				}
				if cfg.Idempotent {
					// Deterministic per (client, slot), so a resubmission
					// of the same logical job carries the same key.
					req.IdempotencyKey = fmt.Sprintf("%s-k%03d", tenant, k)
				}
				t0 := time.Now()
				st, retries, err := cfg.Target.SubmitRetry(req, pol)
				outs[ci*cfg.JobsPerClient+k] = outcome{st, retries, time.Since(t0), err}
				if cfg.ThinkTime > 0 && k+1 < cfg.JobsPerClient {
					time.Sleep(cfg.ThinkTime)
				}
			}
		}(ci)
	}
	wg.Wait()
	var rep LoadReport
	rep.Elapsed = time.Since(start)
	var latencies []time.Duration
	byShard := map[int][]time.Duration{}
	for _, o := range outs {
		var ae *APIError
		rep.Retries += o.retries
		switch {
		case o.err == nil:
			rep.Submitted++
			latencies = append(latencies, o.lat)
			byShard[o.st.Shard] = append(byShard[o.st.Shard], o.lat)
			if o.st.Deduped {
				rep.Deduped++
			}
		case errors.Is(o.err, ErrQuota):
			rep.QuotaDenied++
		case errors.Is(o.err, ErrQueueFull), cfg.Idempotent && !errors.As(o.err, &ae):
			// Backpressure, or a transport failure the key made safe to
			// retry, that outlasted every attempt.
			rep.Failed++
			rep.Exhausted++
		default:
			rep.Failed++
		}
	}
	if rep.Elapsed > 0 {
		rep.Throughput = float64(rep.Submitted) / rep.Elapsed.Seconds()
	}
	sort.Slice(latencies, func(i, j int) bool { return latencies[i] < latencies[j] })
	rep.P50 = percentile(latencies, 0.50)
	rep.P90 = percentile(latencies, 0.90)
	rep.P99 = percentile(latencies, 0.99)
	if n := len(latencies); n > 0 {
		rep.Max = latencies[n-1]
	}
	shardIdx := make([]int, 0, len(byShard))
	for sh := range byShard {
		shardIdx = append(shardIdx, sh)
	}
	sort.Ints(shardIdx)
	for _, sh := range shardIdx {
		lats := byShard[sh]
		sort.Slice(lats, func(i, j int) bool { return lats[i] < lats[j] })
		rep.Shards = append(rep.Shards, ShardLoad{
			Shard:     sh,
			Submitted: len(lats),
			P50:       percentile(lats, 0.50),
			P99:       percentile(lats, 0.99),
		})
	}
	if cfg.Drain {
		d, err := cfg.Target.Drain()
		if err != nil {
			return &rep, fmt.Errorf("serve: loadgen drain: %w", err)
		}
		rep.Drained = d
	}
	return &rep, nil
}

func percentile(sorted []time.Duration, p float64) time.Duration {
	if len(sorted) == 0 {
		return 0
	}
	i := int(p * float64(len(sorted)-1))
	return sorted[i]
}
