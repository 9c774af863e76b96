package main

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand/v2"
	"sort"

	"repro/internal/hw"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/workload"
)

// scenario is one bundled snsched scenario, assembled the way
// `snsched -scenario NAME` assembles it.
type scenario struct {
	name    string
	devices int
	trace   func() ([]workload.TraceJob, []workload.TraceFault)
	opts    []sched.Option
}

func jobsOnly(f func() []workload.TraceJob) func() ([]workload.TraceJob, []workload.TraceFault) {
	return func() ([]workload.TraceJob, []workload.TraceFault) { return f(), nil }
}

var scenarios = []scenario{
	{name: "gang", devices: workload.GangClusterDevices, trace: jobsOnly(workload.GangTrace),
		opts: []sched.Option{sched.WithTopology(hw.DefaultTopology()), sched.WithOverlap()}},
	{name: "cotenant", devices: workload.CoTenantClusterDevices, trace: jobsOnly(workload.CoTenantTrace),
		opts: []sched.Option{sched.WithCrossJob(8 * hw.GiB)}},
	{name: "faults", devices: workload.FaultClusterDevices, trace: workload.FaultTrace,
		opts: []sched.Option{sched.WithTopology(hw.DefaultTopology()), sched.WithOverlap()}},
}

// replayInput is one scenario ready to replay.
type replayInput struct {
	name    string
	cluster sched.Cluster
	jobs    []sched.Job
}

// resamplesPerRun is how many resampled variants of the traces one run
// cycles through. The scheduler's cost depends on the arrival order, so
// a run's median pass rests on many orders rather than a few, and a
// 15 s run still replays most variants twice or more, which the
// per-pass determinism check compares.
const resamplesPerRun = 24

// schedInputs builds the named scenarios. Seed 0 replays the bundled
// traces verbatim; any other seed resamples them (see resample), and
// variant k in [0, resamplesPerRun) picks one of the seed's resamples.
func schedInputs(seed uint64, variant int, names []string) ([]replayInput, error) {
	var out []replayInput
	for _, name := range names {
		var sc *scenario
		for i := range scenarios {
			if scenarios[i].name == name {
				sc = &scenarios[i]
			}
		}
		if sc == nil {
			return nil, fmt.Errorf("unknown scenario %q", name)
		}
		jobs, faults := sc.trace()
		if seed != 0 {
			jobs = resample(jobs, rand.New(rand.NewPCG(seed, uint64(variant)<<8|uint64(len(out)))))
		}
		opts := sc.opts
		if len(faults) > 0 {
			opts = append(opts[:len(opts):len(opts)], sched.WithFaultPlan(sched.FaultsFromTrace(faults)))
		}
		c, err := sched.NewCluster(sched.Uniform(hw.TeslaK40c, sc.devices), opts...)
		if err != nil {
			return nil, err
		}
		out = append(out, replayInput{name: name, cluster: c, jobs: sched.JobsFromTrace(jobs)})
	}
	return out, nil
}

// schedVariants builds every variant a run cycles through: one for
// seed 0 (the bundled traces, verbatim), resamplesPerRun otherwise.
func schedVariants(seed uint64, names []string) ([][]replayInput, error) {
	n := resamplesPerRun
	if seed == 0 {
		n = 1
	}
	out := make([][]replayInput, n)
	for k := range out {
		in, err := schedInputs(seed, k, names)
		if err != nil {
			return nil, err
		}
		out[k] = in
	}
	return out, nil
}

// resample moves every arrival of a bundled trace by up to ±100 ms, which
// reorders jobs that arrive within a few hundred milliseconds of each
// other (the bundled traces space them 50-500 ms apart) and so changes
// when and where each is placed. The job shapes stay as bundled:
// permuting them across jobs made one variant's pass cost from 0.6 to
// 1.3 times the bundled trace's, so the spread of the run's median from
// seed to seed measured the inputs rather than the code.
func resample(jobs []workload.TraceJob, rng *rand.Rand) []workload.TraceJob {
	out := make([]workload.TraceJob, len(jobs))
	for i, j := range jobs {
		j.ArrivalMS = max(0, j.ArrivalMS+rng.Int64N(201)-100)
		out[i] = j
	}
	sort.SliceStable(out, func(a, b int) bool { return out[a].ArrivalMS < out[b].ArrivalMS })
	return out
}

// replayPass replays every scenario the way `snsched -scenario NAME`
// does: all four policies side by side (policy.CompareSchedulers) on a
// fresh estimator, so each pass pays its own dry runs.
func replayPass(inputs []replayInput, tr *tracer) ([][]*sched.Result, error) {
	out := make([][]*sched.Result, len(inputs))
	for i, in := range inputs {
		sp := tr.begin("sched.replay." + in.name)
		res, err := policy.CompareSchedulers(in.cluster, in.jobs)
		tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", in.name, err)
		}
		out[i] = res
	}
	return out, nil
}

// replayDigests hashes each scenario's four results, outside the timed
// pass.
func replayDigests(inputs []replayInput, results [][]*sched.Result) (map[string]string, error) {
	digests := make(map[string]string, len(inputs))
	for i, in := range inputs {
		h := sha256.New()
		for _, res := range results[i] {
			data, err := json.Marshal(res)
			if err != nil {
				return nil, err
			}
			h.Write(data)
		}
		digests[in.name] = hex.EncodeToString(h.Sum(nil))
	}
	return digests, nil
}

// runSchedReplay is the trace-replay workload: closed-loop passes over
// the scenarios, in process. No HTTP or WAL code runs.
func runSchedReplay(e *env, sc scale) (*report, error) {
	r := newReport(e.o)
	setup, err := coldStarts(e, sc)
	if err != nil {
		return nil, err
	}
	inputs, err := schedVariants(e.o.seed, sc.scenarios)
	if err != nil {
		return nil, err
	}
	golden, err := readGolden("sched-replay.sha256")
	if err != nil {
		return nil, err
	}
	var results [][]*sched.Result
	run := func(i int) (err error) {
		results, err = replayPass(inputs[i%len(inputs)], nil)
		return err
	}
	digest := func(i int) (map[string]string, error) {
		k := i % len(inputs)
		d, err := replayDigests(inputs[k], results)
		if len(inputs) == 1 {
			return d, err
		}
		keyed := make(map[string]string, len(d))
		for name, sum := range d {
			keyed[fmt.Sprintf("%s#%d", name, k)] = sum
		}
		return keyed, err
	}
	lat, err := passes(e, sc.minPasses, len(inputs), r, run, digest)
	if err != nil {
		return nil, err
	}
	if e.o.seed == 0 {
		r.check("sched-replay: seed-0 digests match testdata/sched-replay.sha256", matchGolden(golden, r.Digests))
	}
	latencyMetrics(r, "pass", lat, e.speed.marks, true)
	secondsMetric(r, "setup_s", setup, e.speed.marks, true)
	return r, nil
}

// passes runs one untimed warm-up pass, then timed passes until the
// window is spent (at least minPasses) and the pass count is a multiple
// of cycle, so that each of cycle inputs is timed equally often and the
// run's percentiles do not depend on which inputs the last partial cycle
// happened to reach. run(i) performs pass i; digest(i) then hashes its
// output, outside the clock. Every output must digest the same as the
// first pass that produced it; the digests are recorded on r.
func passes(e *env, minPasses, cycle int, r *report, run func(i int) error,
	digest func(i int) (map[string]string, error)) ([]opSample, error) {
	r.Digests = map[string]string{}
	mismatch := 0
	record := func(i int) error {
		got, err := digest(i)
		for name, sum := range got {
			if want, seen := r.Digests[name]; !seen {
				r.Digests[name] = sum
			} else if want != sum {
				mismatch++
			}
		}
		return err
	}
	if err := run(0); err != nil {
		return nil, err
	}
	if err := record(0); err != nil {
		return nil, err
	}
	var lat []opSample
	start := e.speed.now()
	for i := 0; i < minPasses || e.speed.now()-start < e.o.window || i%cycle != 0; i++ {
		e.speed.tick()
		smp, err := e.speed.timeOp(func() error { return run(i) })
		if err == nil {
			err = record(i)
		}
		r.Attempted++
		if err != nil {
			r.Failed++
			r.Failures = append(r.Failures, err.Error())
			continue
		}
		lat = append(lat, smp)
	}
	e.speed.mark()
	var derr error
	if mismatch > 0 {
		derr = fmt.Errorf("%d outputs differ from an earlier pass on the same input", mismatch)
	}
	r.check(r.Workload+": every pass on the same input produces identical output", derr)
	return lat, nil
}
