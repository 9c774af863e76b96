// Package serve is the long-running job-submission service over the
// multi-tenant cluster scheduler: the piece that turns the batch-replay
// evaluation harness (internal/sched, cmd/snsched) into a system that
// accepts training-job requests concurrently, the way the paper's
// runtime is meant to be consumed by a fleet of users.
//
// The design splits the service into a concurrent edge and a
// deterministic core:
//
//   - Concurrency at the edge. Submit may be called from any number of
//     goroutines (the HTTP handlers do); request decoding and the
//     dry-run validation run outside the lock, and everything else
//     takes the one service lock. Tenants are partitioned onto shards;
//     each shard owns a bounded set of per-tenant admission queues.
//     Within a shard no tenant can starve the others (round-robin
//     fairness) and no tenant can exceed its lifetime quota.
//   - Determinism at the core. One sequencer pops every shard in
//     index order and appends the pass to the request log; wall clock
//     decides only which submissions a pass finds queued, and the log
//     records that order. The i-th merged job gets the
//     deterministic virtual arrival i·spacing ms, so the merged log is
//     exactly a workload trace (workload.FormatTrace bytes).
//     Everything the service reports — job status, cluster metrics,
//     the drain summary — is a pure function of that log, computed by
//     replaying it through the same sched machinery cmd/snsched uses.
//     Re-running a day of logged traffic therefore reproduces every
//     per-job result byte-identically, whatever the shard count was.
//
// Replay cost does not grow with history: the merger feeds a resumable
// sched.Incremental whose watermark advances every SnapshotEvery jobs
// as the log grows, so a status or metrics query only replays the
// active suffix (and a finalized job's status is O(1)). The paused
// replay also serializes (Checkpoint), giving crash-recoverable log
// compaction: restore the checkpoint, append the log suffix, and the
// result equals a full replay byte for byte.
//
// Because the cluster runs in virtual time, a "status" query returns
// the projected schedule of the job given the traffic admitted so far;
// later arrivals may still preempt it (exactly as in the batch
// replay), and the drain summary is the final word.
package serve

import (
	"context"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"math"
	"sort"
	"strings"
	"sync"
	"time"
	"unicode"
	"unicode/utf8"

	"repro/internal/core"
	"repro/internal/sched"
	"repro/internal/sim"
	"repro/internal/workload"
)

// DefaultQueueDepth bounds each shard's admission queue when Config
// leaves it 0.
const DefaultQueueDepth = 256

// DefaultIdempotencyCap bounds the idempotency dedup index when Config
// leaves it 0: the service remembers the most recent this-many keys.
const DefaultIdempotencyCap = 4096

// DefaultSnapshotEvery is the compaction interval when Config leaves
// SnapshotEvery 0: the replay watermark advances every this-many
// merged jobs.
const DefaultSnapshotEvery = 64

// Sentinel errors of the submission path; the HTTP layer maps each to
// a status code.
var (
	// ErrQueueFull: the shard's bounded admission queue is at capacity.
	ErrQueueFull = errors.New("serve: admission queue full")
	// ErrQuota: the tenant used up its lifetime job quota.
	ErrQuota = errors.New("serve: tenant quota exhausted")
	// ErrDraining: the service no longer accepts jobs.
	ErrDraining = errors.New("serve: service is draining")
	// ErrDuplicateID: the (tenant, id) pair was already submitted.
	ErrDuplicateID = errors.New("serve: duplicate job id")
	// ErrBadRequest: the request is malformed (unknown network, bad
	// batch/schedule, unknown manager, illegal characters).
	ErrBadRequest = errors.New("serve: invalid request")
	// ErrUnknownJob: no job with that id.
	ErrUnknownJob = errors.New("serve: unknown job")
)

// RetryableError wraps the backpressure sentinel (ErrQueueFull) with a
// retry hint; the HTTP layer surfaces it as a Retry-After header.
// errors.Is still matches the wrapped sentinel.
type RetryableError struct {
	Err        error
	RetryAfter time.Duration
}

func (e *RetryableError) Error() string { return e.Err.Error() }
func (e *RetryableError) Unwrap() error { return e.Err }

// Config parameterizes a Service.
type Config struct {
	// Cluster is the simulated GPU pool jobs are scheduled onto.
	Cluster sched.Cluster
	// Policy is the scheduler policy (default sched.Packing).
	Policy sched.Policy
	// Shards partitions tenants across admission queues (default 1).
	// All of a tenant's jobs land on one shard, so
	// per-tenant fairness and FIFO submission order are preserved;
	// the shard count never changes the log format or the replay.
	Shards int
	// QueueDepth bounds each shard's admission queue: the number of
	// accepted-but-not-yet-sequenced jobs a shard holds. Submit fails
	// with ErrQueueFull beyond it. 0 means DefaultQueueDepth.
	QueueDepth int
	// TenantQuota caps the number of jobs one tenant may submit over
	// the service lifetime; 0 means unlimited.
	TenantQuota int
	// SpacingMS is the virtual arrival gap between consecutively
	// merged jobs (default 1 ms): the i-th job in the request log
	// arrives at i·SpacingMS.
	SpacingMS int64
	// SnapshotEvery sets the log-compaction interval: every
	// SnapshotEvery merged jobs the service advances its resumable
	// replay's watermark, so queries replay only the suffix since the
	// last advance instead of the whole history, and finalized job
	// statuses are O(1). 0 means DefaultSnapshotEvery.
	SnapshotEvery int
	// WALDir, when non-empty, arms the durability layer: every merged
	// job is appended to a segmented write-ahead log under this
	// directory before submitters are acked, and New recovers whatever
	// the directory already holds (truncating a torn tail) so a
	// restarted service resumes with the identical merged log. With a
	// WAL attached (and Manual unset) Submit blocks until the job is
	// sequenced and its record fsynced, and returns the sequenced
	// status instead of StateQueued: an acked submission survives
	// kill -9.
	WALDir string
	// SegmentBytes rotates WAL segments past this size (default
	// DefaultSegmentBytes).
	SegmentBytes int64
	// IdempotencyCap bounds the dedup index of remembered
	// IdempotencyKeys (default DefaultIdempotencyCap). The oldest key
	// is evicted first; an evicted key no longer dedupes.
	IdempotencyCap int
	// Logger receives structured service events (admissions, sequencing,
	// watermark advances); nil discards them. Per-job events
	// log at Debug, lifecycle transitions at Info/Warn.
	Logger *slog.Logger
	// Manual disables the background sequencer goroutine; callers
	// step admission explicitly with Advance (tests do, to observe
	// fairness deterministically).
	Manual bool
}

// JobState is the lifecycle state of a submitted job.
type JobState string

const (
	// StateQueued: accepted into a shard's admission queue, not yet
	// merged into the request log.
	StateQueued JobState = "queued"
	// StateScheduled: sequenced and placed by the scheduler; Result
	// holds the projected schedule.
	StateScheduled JobState = "scheduled"
	// StateRejected: sequenced but rejected by admission control (the
	// job cannot fit any device).
	StateRejected JobState = "rejected"
)

// SubmitRequest is one training-job submission.
type SubmitRequest struct {
	// Tenant namespaces the job; empty means "anon". Tenants share the
	// cluster under the round-robin fairness and quota rules.
	Tenant string `json:"tenant,omitempty"`
	// ID names the job within the tenant; empty auto-assigns one. The
	// full job id is "tenant/id".
	ID string `json:"id,omitempty"`
	// Network and Batch select the model shape (see
	// superneurons.Networks).
	Network string `json:"network"`
	Batch   int    `json:"batch,omitempty"`
	// Schedule, when non-empty, declares a dynamic per-iteration batch
	// schedule in the compact trace syntax ("16x2,32"); it overrides
	// Batch.
	Schedule string `json:"schedule,omitempty"`
	// Manager names the memory manager. Empty selects "custom", the
	// bare device with every technique off, the memory pool included
	// (not the "naive" baseline).
	Manager string `json:"manager,omitempty"`
	// Priority orders jobs under the priority policy.
	Priority int `json:"priority,omitempty"`
	// Iterations is the training length (default 1).
	Iterations int `json:"iterations,omitempty"`
	// IdempotencyKey, when non-empty, makes the submission retry-safe:
	// a later submit carrying the same key returns the original job's
	// status (Deduped set) instead of sequencing a new job. With a WAL
	// attached the binding survives a crash, so a retry after a lost
	// ack can never double-sequence. Keys share the request-log token
	// alphabet (no whitespace or '#') and live in a bounded index; see
	// Config.IdempotencyCap.
	IdempotencyKey string `json:"idempotency_key,omitempty"`
}

// JobStatus is the service's view of one job.
type JobStatus struct {
	ID     string   `json:"id"`
	Tenant string   `json:"tenant"`
	State  JobState `json:"state"`
	// Shard is the admission shard the tenant maps to.
	Shard int `json:"shard"`
	// QueuePosition is the 1-based position in the tenant's admission
	// queue while queued.
	QueuePosition int `json:"queue_position,omitempty"`
	// Seq is the position in the request log once sequenced (-1 while
	// queued); ArrivalMS is the deterministic virtual arrival.
	Seq       int   `json:"seq"`
	ArrivalMS int64 `json:"arrival_ms"`
	// Reason explains a rejection.
	Reason string `json:"reason,omitempty"`
	// Durable reports that the job's WAL record is covered by an fsync
	// (always false without a WAL).
	Durable bool `json:"durable,omitempty"`
	// Deduped marks a submit response that resolved to a previously
	// submitted job via its IdempotencyKey.
	Deduped bool `json:"deduped,omitempty"`
	// Result is the projected schedule of a sequenced job, replayed
	// from the request log.
	Result *sched.JobResult `json:"result,omitempty"`
}

// TenantStat aggregates one tenant in Metrics.
type TenantStat struct {
	// Accepted is the lifetime count (queued + sequenced) the quota
	// applies to.
	Accepted  int `json:"accepted"`
	Queued    int `json:"queued"`
	Sequenced int `json:"sequenced"`
}

// ShardStat aggregates one admission shard in Metrics.
type ShardStat struct {
	Tenants   int `json:"tenants"`
	Queued    int `json:"queued"`
	Sequenced int `json:"sequenced"`
}

// Metrics is a point-in-time cluster snapshot, computed by replaying
// the current request log.
type Metrics struct {
	Policy   string `json:"policy"`
	Device   string `json:"device"`
	Devices  int    `json:"devices"`
	Capacity int64  `json:"capacity_bytes"`

	JobsAccepted  int  `json:"jobs_accepted"`
	JobsQueued    int  `json:"jobs_queued"`
	JobsSequenced int  `json:"jobs_sequenced"`
	JobsRejected  int  `json:"jobs_rejected"`
	Draining      bool `json:"draining"`
	// SnapshotSeq is the log position of the replay watermark: queries
	// replay only jobs at or after it.
	SnapshotSeq int `json:"snapshot_seq,omitempty"`
	// EstimatedShapes counts memoized dry-run shapes in the admission
	// estimator.
	EstimatedShapes int                   `json:"estimated_shapes"`
	Tenants         map[string]TenantStat `json:"tenants"`
	Shards          []ShardStat           `json:"shards,omitempty"`

	Makespan           sim.Duration       `json:"makespan_ns"`
	MeanJCT            sim.Duration       `json:"mean_jct_ns"`
	MeanWait           sim.Duration       `json:"mean_wait_ns"`
	Utilization        float64            `json:"utilization"`
	ComputeUtilization float64            `json:"compute_utilization"`
	DeviceStats        []sched.DeviceStat `json:"device_stats"`
}

// job is the service's record of one submission.
type job struct {
	tj     workload.TraceJob
	tenant string
	key    string // idempotency key, "" when the client sent none
	shard  int
	sub    int // global submission order
	seq    int // request-log position; -1 while queued (guarded by Service.mu)
}

// Service is a concurrent job-submission front-end over one
// deterministic cluster scheduler. All methods are safe for concurrent
// use.
type Service struct {
	cfg   Config
	est   *sched.Estimator
	lg    *slog.Logger
	lgDbg bool // Debug level enabled (checked once; gates hot-path logging)

	// mu is the service's only lock: it guards every field below and
	// the shards. cond wakes durable-ack and WaitSequenced waiters after
	// each merge; work wakes the sequencer when Submit queues a job.
	mu      sync.Mutex
	cond    *sync.Cond
	work    *sync.Cond
	shards  []*shard
	byID    map[string]*job
	count   map[string]int // lifetime accepted per tenant
	queued  map[string]int // currently queued per tenant
	tenants []string       // tenants in first-seen order
	subs    int            // global submission counter
	log     []workload.TraceJob
	batch   []*job // scratch: the jobs one sequencing pass pops

	// Durability (Config.WALDir). wal is the append handle; durable is
	// the job-record count covered by the last fsync; walErr latches
	// the first append/sync failure (once set, acks stop). rec is the
	// state New recovered at start, nil without a WAL.
	wal     *wal
	durable int
	walErr  error
	rec     *RecoveredLog

	// Idempotency dedup index: key -> job, bounded FIFO (idemOrder is
	// insertion order; the front evicts first).
	idem      map[string]*job
	idemOrder []string

	// inc is the resumable replay; lastAdv is the log length at its
	// last watermark advance. incErr latches an append failure: the
	// replay can no longer answer, so result queries return it.
	inc     *sched.Incremental
	lastAdv int
	incErr  error

	// draining is set by Drain, which sequences every queued job in
	// the same critical section: once set, nothing is queued.
	draining bool
	drainCh  chan struct{}

	// result memo: the replay of log[:resN].
	resN   int
	resOK  bool
	res    *sched.Result
	resErr error
}

// New constructs a Service and, unless cfg.Manual is set, starts the
// sequencer goroutine.
func New(cfg Config) (*Service, error) {
	if cfg.Policy.Name == "" {
		cfg.Policy = sched.Packing
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = DefaultQueueDepth
	}
	if cfg.SpacingMS <= 0 {
		cfg.SpacingMS = 1
	}
	if cfg.SnapshotEvery <= 0 {
		cfg.SnapshotEvery = DefaultSnapshotEvery
	}
	if cfg.IdempotencyCap <= 0 {
		cfg.IdempotencyCap = DefaultIdempotencyCap
	}
	est := sched.NewEstimator()
	inc, err := sched.NewIncremental(cfg.Cluster, cfg.Policy, est)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:     cfg,
		est:     est,
		inc:     inc,
		byID:    make(map[string]*job),
		count:   make(map[string]int),
		queued:  make(map[string]int),
		idem:    make(map[string]*job),
		drainCh: make(chan struct{}),
	}
	s.cond = sync.NewCond(&s.mu)
	s.work = sync.NewCond(&s.mu)
	if cfg.Logger != nil {
		s.lg = cfg.Logger
	} else {
		s.lg = slog.New(slog.NewTextHandler(io.Discard, nil))
	}
	s.lgDbg = s.lg.Enabled(context.Background(), slog.LevelDebug)
	s.shards = make([]*shard, cfg.Shards)
	for i := range s.shards {
		s.shards[i] = &shard{idx: i, queues: make(map[string][]*job)}
	}
	if cfg.WALDir != "" {
		if err := s.attachWAL(); err != nil {
			return nil, err
		}
	}
	if !cfg.Manual {
		go s.sequencer()
	}
	s.lg.Info("service up", "shards", cfg.Shards, "queue_depth", cfg.QueueDepth,
		"snapshot_every", cfg.SnapshotEvery, "policy", cfg.Policy.Name)
	return s, nil
}

// attachWAL opens (and recovers) the write-ahead log and seeds the
// service with the recovered prefix: the merged log, the per-tenant
// tallies and the surviving idempotency bindings, exactly
// as if the recovered jobs had just been sequenced.
// Runs from New, before any concurrency, so no locks are needed.
func (s *Service) attachWAL() error {
	w, rec, err := openWAL(s.cfg.WALDir, s.cfg.SpacingMS, s.cfg.SegmentBytes)
	if err != nil {
		return err
	}
	s.wal, s.rec = w, rec
	s.durable = len(rec.Jobs)
	for i, tj := range rec.Jobs {
		tenant := tj.ID
		if cut := strings.IndexByte(tenant, '/'); cut >= 0 {
			tenant = tenant[:cut]
		}
		j := &job{tj: tj, tenant: tenant, shard: s.shardOf(tenant).idx, sub: i, seq: i}
		if s.count[tenant] == 0 {
			s.tenants = append(s.tenants, tenant)
		}
		s.count[tenant]++
		s.subs++
		s.byID[tj.ID] = j
		s.log = append(s.log, tj)
		if s.incErr == nil {
			if _, err := s.inc.Append(sched.JobFromTrace(tj)); err != nil {
				s.incErr = err
				s.lg.Error("incremental replay append failed on recovery", "id", tj.ID, "err", err)
			}
		}
	}
	// Rebind the surviving idempotency keys, newest-first wins the
	// bounded index (the recovered list is in log order).
	idem := rec.Idem
	if len(idem) > s.cfg.IdempotencyCap {
		idem = idem[len(idem)-s.cfg.IdempotencyCap:]
	}
	for _, e := range idem {
		if j, ok := s.byID[e.ID]; ok {
			j.key = e.Key
			s.idem[e.Key] = j
			s.idemOrder = append(s.idemOrder, e.Key)
		}
	}
	s.advanceWatermarkLocked()
	if rec.Torn != nil {
		s.lg.Warn("wal recovered with torn tail", "jobs", len(rec.Jobs),
			"segment", rec.Torn.Segment, "offset", rec.Torn.Offset, "reason", rec.Torn.Reason)
	} else if len(rec.Jobs) > 0 {
		s.lg.Info("wal recovered", "jobs", len(rec.Jobs), "segments", rec.Segments)
	}
	return nil
}

// Recovered reports the WAL state New restored at start: nil without a
// WAL, otherwise the recovered prefix (possibly empty) including any
// torn-tail diagnosis.
func (s *Service) Recovered() *RecoveredLog { return s.rec }

// shardOf maps a tenant to its shard: a stable hash, so a tenant's
// jobs always share one queue and keep their FIFO submission order.
func (s *Service) shardOf(tenant string) *shard {
	if len(s.shards) == 1 {
		return s.shards[0]
	}
	h := fnv.New32a()
	_, _ = io.WriteString(h, tenant)
	return s.shards[int(h.Sum32())%len(s.shards)]
}

// Submit validates and enqueues one job on its tenant's shard. The
// dry-run validation runs before the service lock is taken (the
// estimator memoizes concurrently), so submissions of known shapes are
// cheap. The returned status is StateQueued; rejection by the
// cluster's memory admission happens deterministically after
// sequencing and shows up in Status.
func (s *Service) Submit(req SubmitRequest) (*JobStatus, error) {
	tj, tenant, err := s.validate(req)
	if err != nil {
		return nil, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	st, j, err := s.submitLocked(req, tj, tenant)
	if err != nil || s.wal == nil || s.cfg.Manual {
		return st, err
	}
	// Durable-synchronous ack: with a WAL attached, an accepted job is
	// always eventually sequenced (Drain sequences everything queued),
	// so wait until it is and the fsync covering it has run, then
	// return the sequenced status. Manual mode cannot wait: the caller
	// is the one who must step Advance. A latched WAL failure turns
	// into an error: the service can no longer promise the ack
	// survives.
	for (j.seq < 0 || s.durable <= j.seq) && s.walErr == nil {
		s.cond.Wait()
	}
	if s.walErr != nil {
		return nil, s.walErr
	}
	deduped := st.Deduped
	st = s.sequencedStatusLocked(j)
	st.Deduped = deduped
	return st, nil
}

// submitLocked applies the admission rules to a validated request and
// queues it. Caller holds s.mu.
func (s *Service) submitLocked(req SubmitRequest, tj workload.TraceJob, tenant string) (*JobStatus, *job, error) {
	// Idempotent replay resolves before every other admission rule —
	// including draining: a retry of an already-accepted submission is
	// not new load, and must keep returning the original ack.
	if req.IdempotencyKey != "" {
		if j, ok := s.idem[req.IdempotencyKey]; ok {
			var st *JobStatus
			if j.seq >= 0 {
				st = s.sequencedStatusLocked(j)
			} else {
				st = &JobStatus{ID: j.tj.ID, Tenant: j.tenant, State: StateQueued, Shard: j.shard, Seq: -1}
			}
			st.Deduped = true
			return st, j, nil
		}
	}
	if s.draining {
		return nil, nil, ErrDraining
	}
	if tj.ID == "" {
		// Auto ids must dodge user-chosen ones: a request that supplied
		// no id can never fail as a duplicate.
		for i := s.subs; ; i++ {
			cand := fmt.Sprintf("%s/j%d", tenant, i)
			if _, taken := s.byID[cand]; !taken {
				tj.ID = cand
				break
			}
		}
	}
	if _, dup := s.byID[tj.ID]; dup {
		return nil, nil, fmt.Errorf("%w: %s", ErrDuplicateID, tj.ID)
	}
	if q := s.cfg.TenantQuota; q > 0 && s.count[tenant] >= q {
		return nil, nil, fmt.Errorf("%w: tenant %s at %d jobs", ErrQuota, tenant, q)
	}
	sh := s.shardOf(tenant)
	if sh.pending >= s.cfg.QueueDepth {
		// The shard depth watermark: the retry hint scales with how
		// loaded the shard is, so clients back off harder the deeper
		// the backlog.
		hint := time.Second * time.Duration(1+2*sh.pending/s.cfg.QueueDepth)
		return nil, nil, &RetryableError{
			Err:        fmt.Errorf("%w: shard %d at %d pending", ErrQueueFull, sh.idx, sh.pending),
			RetryAfter: hint,
		}
	}
	j := &job{tj: tj, tenant: tenant, key: req.IdempotencyKey, shard: sh.idx, sub: s.subs, seq: -1}
	s.subs++
	if s.count[tenant] == 0 {
		s.tenants = append(s.tenants, tenant)
	}
	s.count[tenant]++
	s.queued[tenant]++
	s.byID[tj.ID] = j
	if j.key != "" {
		s.idem[j.key] = j
		s.idemOrder = append(s.idemOrder, j.key)
		for len(s.idemOrder) > s.cfg.IdempotencyCap {
			delete(s.idem, s.idemOrder[0])
			s.idemOrder = s.idemOrder[1:]
		}
	}
	pos := sh.enqueue(j)
	s.work.Signal()
	if s.lgDbg {
		s.lg.Debug("job accepted", "tenant", tenant, "shard", sh.idx, "id", tj.ID, "queue_pos", pos)
	}
	return &JobStatus{
		ID: tj.ID, Tenant: tenant, State: StateQueued, Shard: sh.idx,
		QueuePosition: pos, Seq: -1,
	}, j, nil
}

// validate checks the request shape and dry-runs every distinct batch
// so malformed submissions (unknown network or manager, bad schedule)
// are refused before they can poison the deterministic log. An
// out-of-memory dry run is NOT a validation error: the job is logged
// and rejected deterministically by the scheduler, exactly as in a
// trace replay.
func (s *Service) validate(req SubmitRequest) (workload.TraceJob, string, error) {
	tenant := req.Tenant
	if tenant == "" {
		tenant = "anon"
	}
	if err := checkToken("tenant", tenant); err != nil {
		return workload.TraceJob{}, "", err
	}
	if strings.Contains(tenant, "/") {
		return workload.TraceJob{}, "", fmt.Errorf("%w: tenant %q must not contain '/'", ErrBadRequest, tenant)
	}
	if req.IdempotencyKey != "" {
		// Keys land in the WAL's "# idem" lines, so they share the log's
		// token alphabet.
		if err := checkToken("idempotency_key", req.IdempotencyKey); err != nil {
			return workload.TraceJob{}, "", err
		}
	}
	var tj workload.TraceJob
	if req.ID != "" {
		if err := checkToken("id", req.ID); err != nil {
			return workload.TraceJob{}, "", err
		}
		tj.ID = tenant + "/" + req.ID
	}
	if req.Network == "" {
		return workload.TraceJob{}, "", fmt.Errorf("%w: network is required", ErrBadRequest)
	}
	tj.Network = req.Network
	tj.Manager = req.Manager
	tj.Priority = req.Priority
	tj.Iterations = req.Iterations
	if tj.Iterations <= 0 {
		tj.Iterations = 1
	}

	batches := []int{req.Batch}
	if req.Schedule != "" {
		sc, err := workload.ParseSchedule(req.Schedule)
		if err != nil {
			return workload.TraceJob{}, "", fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
		tj.Batch = sc.Max()
		if len(sc) > 1 {
			tj.BatchSchedule = sc
		}
		batches = sc.Distinct()
	} else {
		if req.Batch <= 0 {
			return workload.TraceJob{}, "", fmt.Errorf("%w: batch must be positive, got %d", ErrBadRequest, req.Batch)
		}
		tj.Batch = req.Batch
	}
	// The WAL writes the job as one frame: refuse a record that could
	// outgrow the frame cap once sequencing fills in the id and arrival.
	widest := tj
	if widest.ID == "" {
		widest.ID = fmt.Sprintf("%s/j%d", tenant, math.MaxInt64)
	}
	widest.ArrivalMS = math.MaxInt64
	if n := len(walRecord(widest, req.IdempotencyKey)); n > workload.MaxFramePayload {
		return workload.TraceJob{}, "", fmt.Errorf("%w: job record of %d bytes exceeds the %d-byte log record cap", ErrBadRequest, n, workload.MaxFramePayload)
	}
	for _, b := range batches {
		_, err := s.est.Estimate(tj.Network, b, tj.Manager, s.cfg.Cluster.Device)
		if err != nil && !errors.Is(err, core.ErrOutOfMemory) {
			return workload.TraceJob{}, "", fmt.Errorf("%w: %v", ErrBadRequest, err)
		}
	}
	return tj, tenant, nil
}

// checkToken refuses characters that would corrupt the
// whitespace-separated request log, which splits on Unicode spaces,
// and bytes that are not UTF-8: the log would store them raw, and a
// checkpoint cannot carry them (sched.ErrSnapshotValue).
func checkToken(field, v string) error {
	if !utf8.ValidString(v) {
		return fmt.Errorf("%w: %s %q must be valid UTF-8", ErrBadRequest, field, v)
	}
	if strings.ContainsRune(v, '#') || strings.IndexFunc(v, unicode.IsSpace) >= 0 {
		return fmt.Errorf("%w: %s %q must not contain whitespace or '#'", ErrBadRequest, field, v)
	}
	return nil
}

// Advance sequences up to max queued jobs (all of them when max <= 0)
// across the shards in index order and returns how many were
// sequenced. Only useful with Config.Manual; the background sequencer
// runs the same pass.
func (s *Service) Advance(max int) int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.sequenceLocked(max)
}

// sequencer is the background sequencing loop: it merges whatever is
// queued, then sleeps until Submit queues more or Drain stops it.
func (s *Service) sequencer() {
	s.mu.Lock()
	defer s.mu.Unlock()
	for !s.draining {
		if s.sequenceLocked(0) == 0 {
			s.work.Wait()
		}
	}
}

// Status returns one job's current status.
func (s *Service) Status(id string) (*JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.byID[id]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrUnknownJob, id)
	}
	if j.seq >= 0 {
		return s.sequencedStatusLocked(j), nil
	}
	return s.queuedStatusLocked(j), nil
}

// queuedStatusLocked renders a queued job at its queue position.
// Caller holds s.mu.
func (s *Service) queuedStatusLocked(j *job) *JobStatus {
	return &JobStatus{
		ID: j.tj.ID, Tenant: j.tenant, State: StateQueued, Shard: j.shard,
		QueuePosition: s.shards[j.shard].position(j), Seq: -1,
	}
}

// Jobs returns every submitted job's status in submission order.
func (s *Service) Jobs() ([]*JobStatus, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	all := make([]*job, 0, len(s.byID))
	for _, j := range s.byID {
		all = append(all, j)
	}
	// Submission order is the deterministic listing order.
	sort.Slice(all, func(i, k int) bool { return all[i].sub < all[k].sub })
	// One replay answers every sequenced job. When it fails (res is
	// nil), each job resolves on its own, exactly as Status does.
	var res *sched.Result
	if len(s.log) > 0 {
		res, _ = s.resultLocked()
	}
	out := make([]*JobStatus, len(all))
	for i, j := range all {
		switch {
		case j.seq < 0:
			out[i] = s.queuedStatusLocked(j)
		case res != nil:
			out[i] = s.statusLocked(j, res.Jobs[j.seq], nil)
		default:
			out[i] = s.sequencedStatusLocked(j)
		}
	}
	return out, nil
}

// Metrics returns the current cluster snapshot.
func (s *Service) Metrics() (*Metrics, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	m := &Metrics{
		Policy:          s.cfg.Policy.Name,
		Device:          s.cfg.Cluster.Device.Name,
		Devices:         s.cfg.Cluster.Devices,
		Capacity:        s.cfg.Cluster.Capacity(),
		JobsSequenced:   len(s.log),
		Draining:        s.draining,
		SnapshotSeq:     s.lastAdv,
		EstimatedShapes: s.est.Len(),
		Tenants:         make(map[string]TenantStat, len(s.tenants)),
	}
	if len(s.shards) > 1 {
		m.Shards = make([]ShardStat, len(s.shards))
	}
	for _, t := range s.tenants {
		st := TenantStat{Accepted: s.count[t], Queued: s.queued[t]}
		st.Sequenced = st.Accepted - st.Queued
		m.Tenants[t] = st
		m.JobsQueued += st.Queued
		if m.Shards != nil {
			sh := &m.Shards[s.shardOf(t).idx]
			sh.Tenants++
			sh.Queued += st.Queued
			sh.Sequenced += st.Sequenced
		}
	}
	m.JobsAccepted = m.JobsQueued + m.JobsSequenced
	snap, err := s.resultLocked()
	if err != nil {
		return nil, err
	}
	for _, j := range snap.Jobs {
		if j.Rejected {
			m.JobsRejected++
		}
	}
	m.Makespan = snap.Makespan
	m.MeanJCT = snap.MeanJCT()
	m.MeanWait = snap.MeanWait()
	m.Utilization = snap.Utilization
	m.ComputeUtilization = snap.ComputeUtilization
	m.DeviceStats = snap.Devices
	return m, nil
}

// WaitSequenced blocks until at least n jobs have been sequenced into
// the request log, or the timeout elapses, and returns the sequenced
// count. It is the long-poll primitive behind the metrics endpoint.
func (s *Service) WaitSequenced(n int, timeout time.Duration) int {
	deadline := time.Now().Add(timeout)
	s.mu.Lock()
	defer s.mu.Unlock()
	for len(s.log) < n && !s.draining {
		left := time.Until(deadline)
		if left <= 0 {
			break
		}
		// The timer must broadcast under the mutex: cond.Wait registers
		// the waiter while unlocking, so a locked broadcaster cannot
		// fire in the gap and lose the wakeup.
		t := time.AfterFunc(left, func() {
			s.mu.Lock()
			s.cond.Broadcast()
			s.mu.Unlock()
		})
		s.cond.Wait()
		t.Stop()
	}
	return len(s.log)
}

// Drain stops admission, sequences everything still queued on every
// shard, and returns the final schedule of the whole request log. It
// is idempotent; concurrent and later calls return the same result.
func (s *Service) Drain() (*sched.Result, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if !s.draining {
		s.lg.Info("draining")
		s.sequenceLocked(0)
		s.draining = true
		s.cond.Broadcast()
		s.work.Signal()
		close(s.drainCh)
		s.lg.Info("drained", "jobs", len(s.log))
	}
	r, err := s.resultLocked()
	if err == nil {
		err = s.walErr
	}
	return r, err
}

// Close releases the durability layer: a final fsync and close of the
// current WAL segment. Call after Drain (a drained service appends
// nothing more); the returned error is the first WAL failure of the
// service lifetime, so a daemon can surface it in its exit code. Safe
// without a WAL and safe to call twice.
func (s *Service) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.wal != nil {
		if err := s.wal.close(); err != nil && s.walErr == nil {
			s.walErr = err
		}
	}
	return s.walErr
}

// Drained is closed once Drain has run (e.g. via the HTTP API), so a
// daemon can exit after a remote drain.
func (s *Service) Drained() <-chan struct{} { return s.drainCh }

// ReplayLog returns the deterministic request log accumulated so far —
// a complete workload trace. Feeding it to workload.ParseTrace and
// sched.Scheduler.Run (or cmd/snsched -trace) reproduces every per-job
// result byte-identically.
func (s *Service) ReplayLog() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return workload.FormatTrace(s.log)
}

// Cluster returns the configured cluster (for daemons' banners).
func (s *Service) Cluster() sched.Cluster { return s.cfg.Cluster }

// PolicyName returns the configured policy name.
func (s *Service) PolicyName() string { return s.cfg.Policy.Name }

// Shards returns the configured shard count.
func (s *Service) Shards() int { return len(s.shards) }
