package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strings"
	"time"

	"repro/internal/core"
	"repro/internal/hw"
	"repro/internal/liveness"
	"repro/internal/nnet"
	"repro/internal/program"
	"repro/internal/recompute"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/sim"
	"repro/internal/utp"
)

// The traced pass times calls into each layer's public functions from
// this program and keeps the spans in memory. End-to-end metrics are
// always measured with tracing off, in a separate run.

// span is one timed call. Root spans (Parent 0) are whole operations
// ("ack", "read", "pass"); their children are layer calls.
type span struct {
	ID       int    `json:"id"`
	Parent   int    `json:"parent"`
	Workload string `json:"workload"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// mid is the span's midpoint on the run's clock, where its speed factor
// is taken.
func (s span) mid() time.Duration { return time.Duration(s.StartNS+s.EndNS) / 2 }

// tracer records spans; a nil tracer records nothing, so untraced
// passes run the same code.
type tracer struct {
	t0       time.Time // the run's clock, shared with its speed marks
	workload string
	spans    []span
	open     []int // indices of open spans; begin nests under the last
	counts   map[string]float64
}

func newTracer(t0 time.Time) *tracer { return &tracer{t0: t0, counts: map[string]float64{}} }

func (t *tracer) begin(name string) int {
	if t == nil {
		return -1
	}
	parent := 0
	if n := len(t.open); n > 0 {
		parent = t.spans[t.open[n-1]].ID
	}
	i := len(t.spans)
	t.spans = append(t.spans, span{ID: i + 1, Parent: parent, Workload: t.workload, Name: name,
		StartNS: int64(time.Since(t.t0))})
	t.open = append(t.open, i)
	return i
}

func (t *tracer) end(i int) {
	if t == nil {
		return
	}
	t.spans[i].EndNS = int64(time.Since(t.t0))
	t.open = t.open[:len(t.open)-1]
}

// add accumulates a count measured where the work happens.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// count records a scenario replay's scheduler counters.
func (t *tracer) count(scen string, res *sched.Result) {
	if t == nil {
		return
	}
	for _, d := range res.Devices {
		t.add("sched."+scen+".iterations", float64(d.Iterations))
	}
	for _, j := range res.Jobs {
		t.add("sched."+scen+".preemptions", float64(j.Preemptions))
		if scen == "faults" {
			t.add("sched.faults.restores", float64(j.Restores))
		}
	}
}

// runTraced repeats the traced pass of all four workloads until the
// window is spent (at least once) and reports the per-layer metrics.
// It does not depend on -workload: every run traces every layer.
func runTraced(e *env, sc scale) (*report, error) {
	r := newReport(e.o)
	tr := newTracer(e.speed.t0)
	start := e.speed.now()
	cycles := 0
	for cycles == 0 || e.speed.now()-start < e.o.window {
		for _, cfg := range []serveConfig{denseConfig, sparseConfig} {
			if err := traceServe(e, sc, r, tr, cfg); err != nil {
				return nil, err
			}
		}
		if err := traceSched(e, sc, r, tr); err != nil {
			return nil, err
		}
		traceSim(e, sc, r, tr)
		cycles++
	}
	e.speed.mark()
	r.Spans = tr.spans
	layerMetrics(r, tr, e.speed.marks, cycles)
	return r, nil
}

// serveConfig is one serving workload's in-process twin: the daemon's
// configuration with manual sequencing, so each stage can be timed.
type serveConfig struct {
	workload string
	spacing  int64
}

var (
	denseConfig  = serveConfig{workload: "serve-dense", spacing: 1}
	sparseConfig = serveConfig{workload: "serve-sparse", spacing: 5000}
)

// traceServe replays the workload's seeded stream through an in-process
// serve.Service with the daemon's configuration, timing each stage of
// every ack: decode, admit (Submit), sequence (Advance: merge, WAL
// append, fsync), the status projection and the JSON render. Each job
// sits at the same history position as in the end-to-end run.
func traceServe(e *env, sc scale, r *report, tr *tracer, cfg serveConfig) error {
	tr.workload = cfg.workload
	walDir, err := e.dir("wal-trace")
	if err != nil {
		return err
	}
	svcCfg := serve.Config{
		Cluster: daemonCluster, Policy: daemonPolicy, Shards: 4, SnapshotEvery: 64,
		SpacingMS: cfg.spacing, WALDir: walDir, Manual: true,
	}
	svc, err := serve.New(svcCfg)
	if err != nil {
		return err
	}
	defer svc.Close() // on error paths; the success path checks Close
	var events []event
	var subs []submission
	if cfg == denseConfig {
		subs = denseStream(e.o.seed, 0, sc)
		for i := range subs {
			events = append(events, event{kind: opSubmit, sub: i})
		}
	} else {
		rate := sc.sparseSubmitHz + sc.sparseReadHz
		horizon := time.Duration(2 * float64(sc.traceSparseEvents) / rate * float64(time.Second))
		events = genSchedule(e.o.seed, horizon, sc.sparseSubmitHz, sc.sparseReadHz)
		events = events[:min(len(events), sc.traceSparseEvents)]
		subs = genSubmissions(e.o.seed, 3, len(events), sc.sparseTenants)
	}
	var acked []string
	tr.add("serve."+shortName(cfg)+".rejected", 0) // reported even when no job is rejected
	for _, ev := range events {
		if ev.kind == opRead && len(acked) == 0 {
			continue
		}
		e.speed.tick()
		r.Attempted++
		var err error
		if ev.kind == opRead {
			err = traceRead(svc, tr, acked[int(ev.pick*float64(len(acked)))])
		} else {
			s := subs[ev.sub]
			var rejected bool
			if rejected, err = traceAck(svc, tr, s); err == nil {
				acked = append(acked, s.id)
			}
			if rejected {
				tr.add("serve."+shortName(cfg)+".rejected", 1)
			}
		}
		if err != nil {
			r.Failed++
			r.Failures = append(r.Failures, err.Error())
		}
	}

	m, err := svc.Metrics()
	if err != nil {
		return err
	}
	res, err := svc.Drain()
	if err != nil {
		return err
	}
	tr.add("serve."+shortName(cfg)+".active_jobs", float64(activeJobs(res, m.SnapshotSeq, cfg.spacing)))
	if err := svc.Close(); err != nil {
		return err
	}
	n, err := walBytes(walDir)
	if err != nil {
		return err
	}
	tr.add("serve."+shortName(cfg)+".wal_bytes", float64(n))
	raw, err := json.Marshal(res)
	if err != nil {
		return err
	}
	checkDrained(r, cfg.workload+" (traced)", acked, &drainSummary{Result: raw, ReplayLog: svc.ReplayLog()}, walDir)

	e.speed.mark()
	sp := tr.begin("serve.recover")
	_, err = serve.RecoverWAL(walDir)
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("serve.restart")
	again, err := serve.New(svcCfg)
	tr.end(sp)
	if err != nil {
		return err
	}
	return again.Close()
}

// activeJobs counts the jobs a status projection still replays at the
// end of the stream: neither rejected nor finished below the replay
// watermark (the log position of the last advance, in virtual time).
// It is the compaction miss count: all jobs on dense, a few on sparse.
func activeJobs(res *sched.Result, watermarkSeq int, spacingMS int64) int {
	w := sim.Time(int64(watermarkSeq)*spacingMS) * sim.Time(sim.Millisecond)
	n := 0
	for _, j := range res.Jobs {
		if !j.Rejected && j.Finish >= w {
			n++
		}
	}
	return n
}

func shortName(cfg serveConfig) string { return strings.TrimPrefix(cfg.workload, "serve-") }

// traceAck is one durable submission, stage by stage. It reports whether
// the scheduler rejected the job for admission, a correct outcome.
func traceAck(svc *serve.Service, tr *tracer, s submission) (rejected bool, err error) {
	op := tr.begin("ack")
	defer tr.end(op)
	sp := tr.begin("serve.decode")
	var req serve.SubmitRequest
	err = serve.DecodeSubmitRequest(s.body, &req)
	tr.end(sp)
	if err != nil {
		return false, err
	}
	sp = tr.begin("serve.admit")
	_, err = svc.Submit(req)
	tr.end(sp)
	if err != nil {
		return false, err
	}
	sp = tr.begin("serve.sequence")
	svc.Advance(0)
	tr.end(sp)
	sp = tr.begin("serve.status")
	st, err := svc.Status(s.id)
	tr.end(sp)
	if err != nil {
		return false, err
	}
	if st.Seq < 0 || !st.Durable {
		return false, fmt.Errorf("traced ack %s: not sequenced and durable: %+v", s.id, st)
	}
	return st.State == serve.StateRejected, traceRender(tr, st)
}

// traceRead is one status read of an earlier acked job.
func traceRead(svc *serve.Service, tr *tracer, id string) error {
	op := tr.begin("read")
	defer tr.end(op)
	sp := tr.begin("serve.read")
	st, err := svc.Status(id)
	tr.end(sp)
	if err != nil {
		return err
	}
	return traceRender(tr, st)
}

// traceRender renders a status the way the HTTP layer renders a durable
// ack or a status read.
func traceRender(tr *tracer, st *serve.JobStatus) error {
	sp := tr.begin("serve.render")
	defer tr.end(sp)
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	return enc.Encode(st)
}

// traceSched replays each of the run's sched-replay variants once,
// timed per scenario, then probes the first variant: the estimator's
// cold dry runs (and, for the co-tenant scenario, tensor demands) and
// one warm replay per policy, run one after another.
func traceSched(e *env, sc scale, r *report, tr *tracer) error {
	tr.workload = "sched-replay"
	variants, err := schedVariants(e.o.seed, sc.scenarios)
	if err != nil {
		return err
	}
	for _, inputs := range variants {
		e.speed.tick()
		op := tr.begin("pass")
		results, err := replayPass(inputs, tr)
		tr.end(op)
		r.Attempted++
		if err != nil {
			r.Failed++
			r.Failures = append(r.Failures, err.Error())
			continue
		}
		for i, in := range inputs {
			for _, res := range results[i] {
				tr.count(in.name, res)
			}
		}
		if e.o.seed == 0 {
			digests, err := replayDigests(inputs, results)
			if err != nil {
				return err
			}
			golden, err := readGolden("sched-replay.sha256")
			if err != nil {
				return err
			}
			r.check("sched-replay (traced): seed-0 digests match testdata/sched-replay.sha256", matchGolden(golden, digests))
		}
	}

	inputs := variants[0]
	e.speed.tick()
	est := sched.NewEstimator()
	op := tr.begin("probe")
	warmEstimates(est, inputs, tr)
	tr.end(op)
	for _, in := range inputs {
		for _, pol := range sched.Policies() {
			s, err := sched.NewSchedulerWithEstimator(in.cluster, pol, est)
			if err != nil {
				return err
			}
			e.speed.tick()
			op := tr.begin("probe")
			sp := tr.begin("sched.run." + in.name + "." + pol.Name)
			_, err = s.Run(in.jobs)
			tr.end(sp)
			tr.end(op)
			if err != nil {
				return fmt.Errorf("%s under %s: %w", in.name, pol.Name, err)
			}
		}
	}
	return nil
}

// warmEstimates performs, under its own spans, the dry runs and tensor
// demand extractions Scheduler.Run does on a cold estimator.
func warmEstimates(est *sched.Estimator, inputs []replayInput, tr *tracer) {
	for _, in := range inputs {
		sp := tr.begin("sched.estimate." + in.name)
		type shape struct {
			network string
			batch   int
		}
		var demands []shape
		for _, j := range in.jobs {
			if j.GPUs > in.cluster.Devices {
				continue // rejected before any dry run
			}
			batches := []int{j.Batch}
			if len(j.BatchSchedule) > 0 {
				batches = distinct(j.BatchSchedule)
			}
			worst, worstPeak, fits := 0, int64(0), true
			for _, b := range batches {
				e, err := est.Estimate(j.Network, b, j.Manager, in.cluster.Device)
				if err != nil {
					fits = false
					break
				}
				if e.PeakBytes > worstPeak || worst == 0 {
					worst, worstPeak = b, e.PeakBytes
				}
			}
			if fits && worstPeak <= in.cluster.Capacity() {
				demands = append(demands, shape{j.Network, worst})
			}
		}
		tr.end(sp)
		if in.cluster.CrossJob {
			sp := tr.begin("sched.demands." + in.name)
			for _, d := range demands {
				_, _ = est.TensorDemands(d.network, d.batch)
			}
			tr.end(sp)
		}
	}
}

func distinct(xs []int) []int {
	seen := map[int]bool{}
	var out []int
	for _, x := range xs {
		if !seen[x] {
			seen[x] = true
			out = append(out, x)
		}
	}
	return out
}

// traceSim is one sim-eval pass with each experiment timed, then the
// simulator layer probes.
func traceSim(e *env, sc scale, r *report, tr *tracer) {
	tr.workload = "sim-eval"
	e.speed.tick()
	op := tr.begin("pass")
	texts := simPass(sc.experiments, tr)
	tr.end(op)
	digests := textDigests(texts)
	r.Attempted++
	golden, err := readGolden("sim-eval.sha256")
	if err == nil {
		err = matchGolden(golden, digests)
	}
	r.check("sim-eval (traced): experiment text matches testdata/sim-eval.sha256", err)
	if sc.probes {
		for _, p := range simProbes {
			e.speed.tick()
			if err := probe(tr, p); err != nil {
				r.Failed++
				r.Failures = append(r.Failures, err.Error())
			}
		}
	}
}

// simProbe is one configuration the simulator layers are timed on.
type simProbe struct {
	name   string
	net    func() *nnet.Net
	device hw.DeviceSpec
}

// simProbes: the Table-4 ResNet at SuperNeurons' maximum depth (n3 =
// 1316, 4082 layers) at batch 16, ResNet50 b32 and AlexNet b200 on the
// K40c, and InceptionV4 b64 on the TITAN Xp, all under the full
// SuperNeurons configuration.
var simProbes = []simProbe{
	{"resnet-table4", func() *nnet.Net { return nnet.ResNetTable4(16, 1316) }, hw.TeslaK40c},
	{"resnet50", func() *nnet.Net { return nnet.ResNet(50, 32) }, hw.TeslaK40c},
	{"alexnet", func() *nnet.Net { return nnet.AlexNet(200) }, hw.TeslaK40c},
	{"inceptionv4", func() *nnet.Net { return nnet.InceptionV4(64) }, hw.TitanXP},
}

// probe times the analyses core.Run performs (lowering, liveness, the
// recompute and offload plans) on their own, then the whole run; the
// step loop is the run minus those four.
func probe(tr *tracer, p simProbe) error {
	cfg := core.SuperNeurons(p.device)
	net := p.net()
	op := tr.begin("probe")
	defer tr.end(op)
	sp := tr.begin("program.lower")
	prog := program.BuildWith(net, program.Options{InPlaceAct: cfg.InPlaceAct})
	tr.end(sp)
	sp = tr.begin("liveness.analyze")
	liveness.Analyze(prog)
	tr.end(sp)
	sp = tr.begin("recompute.plan")
	rp := recompute.BuildPlan(prog, cfg.Recompute)
	tr.end(sp)
	sp = tr.begin("utp.plan")
	utp.BuildPlan(prog, cfg.Offload, rp)
	tr.end(sp)
	sp = tr.begin("core.run")
	res, err := core.Run(net, cfg)
	tr.end(sp)
	if err != nil {
		return fmt.Errorf("probe %s: %w", p.name, err)
	}
	tr.add("core.steps", float64(len(res.Steps)))
	tr.add("gpumem.alloc_calls", float64(res.AllocCalls))
	tr.add("gpumem.free_calls", float64(res.FreeCalls))
	tr.add("tcache.hits", float64(res.CacheHits))
	tr.add("tcache.misses", float64(res.CacheMisses))
	tr.add("tcache.evictions", float64(res.Evictions))
	tr.add("recompute.extra_forwards", float64(res.ExtraForwards))
	tr.add("utp.pcie_mib", float64(res.TotalTraffic())/(1<<20))
	return nil
}
