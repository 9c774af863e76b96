package main

import (
	"time"

	"repro/internal/sched"
)

// layerMetrics turns a traced run's spans and counts into the per-layer
// metrics. Times are means per call at the reference speed unless
// noted; counts are per traced cycle (each cycle replays the same
// inputs, so they repeat exactly; the sched counts sum over the run's
// variants).
func layerMetrics(r *report, tr *tracer, marks []speedMark, cycles int) {
	type key struct{ workload, name string }
	total := map[key]time.Duration{}
	calls := map[key]int{}
	for _, s := range tr.spans {
		k := key{s.Workload, s.Name}
		total[k] += time.Duration(float64(s.dur()) * factorAt(marks, s.mid()))
		calls[k]++
	}
	perCall := func(metric, workload, name string, unit time.Duration, unitName string) {
		k := key{workload, name}
		if calls[k] == 0 {
			return
		}
		v := float64(total[k]) / float64(calls[k]) / float64(unit)
		r.Metrics[metric] = stat{Value: v, Unit: unitName, N: calls[k]}
	}
	perCycle := func(workload, name string) float64 {
		return float64(total[key{workload, name}]) / float64(cycles) / float64(time.Millisecond)
	}
	count := func(metric, unit string) {
		if v, ok := tr.counts[metric]; ok {
			r.Metrics[metric] = stat{Value: v / float64(cycles), Unit: unit, N: cycles}
		}
	}

	// serve: one row per ack stage, per configuration.
	for _, cfg := range []serveConfig{denseConfig, sparseConfig} {
		p := "serve." + shortName(cfg) + "."
		for _, stage := range []string{"decode", "admit", "sequence", "status", "render"} {
			perCall(p+stage+"_us", cfg.workload, "serve."+stage, time.Microsecond, "us")
		}
		perCall(p+"recover_ms", cfg.workload, "serve.recover", time.Millisecond, "ms")
		perCall(p+"restart_ms", cfg.workload, "serve.restart", time.Millisecond, "ms")
		count(p+"active_jobs", "count")
		count(p+"rejected", "count")
		count(p+"wal_bytes", "bytes")
	}
	perCall("serve.sparse.read_us", sparseConfig.workload, "serve.read", time.Microsecond, "us")

	// sched: each scenario's side-by-side replay as the pass runs it,
	// then its cold dry runs, tensor demands and one warm replay per
	// policy.
	for _, sc := range scenarios {
		perCall("sched."+sc.name+".replay_ms", "sched-replay", "sched.replay."+sc.name, time.Millisecond, "ms")
		perCall("sched."+sc.name+".estimate_ms", "sched-replay", "sched.estimate."+sc.name, time.Millisecond, "ms")
		perCall("sched."+sc.name+".demands_ms", "sched-replay", "sched.demands."+sc.name, time.Millisecond, "ms")
		for _, pol := range sched.Policies() {
			perCall("sched."+sc.name+"."+pol.Name+".run_ms", "sched-replay",
				"sched.run."+sc.name+"."+pol.Name, time.Millisecond, "ms")
		}
		count("sched."+sc.name+".iterations", "count")
		count("sched."+sc.name+".preemptions", "count")
	}
	count("sched.faults.restores", "count")

	// simulator: each experiment, then the probe set (sums over its four
	// configurations per cycle).
	for _, ex := range experimentList {
		perCall("experiments."+ex.name+"_ms", "sim-eval", "experiments."+ex.name, time.Millisecond, "ms")
	}
	if _, ok := calls[key{"sim-eval", "core.run"}]; ok {
		stages := map[string]string{
			"program.lower_ms": "program.lower", "liveness.analyze_ms": "liveness.analyze",
			"recompute.plan_ms": "recompute.plan", "utp.plan_ms": "utp.plan", "core.run_ms": "core.run",
		}
		analyses := 0.0
		for metric, name := range stages {
			v := perCycle("sim-eval", name)
			r.Metrics[metric] = stat{Value: v, Unit: "ms", N: cycles}
			if name != "core.run" {
				analyses += v
			}
		}
		r.Metrics["core.steploop_ms"] = stat{Value: perCycle("sim-eval", "core.run") - analyses, Unit: "ms", N: cycles}
		for _, c := range []struct{ metric, unit string }{
			{"core.steps", "count"}, {"gpumem.alloc_calls", "count"}, {"gpumem.free_calls", "count"},
			{"tcache.evictions", "count"}, {"recompute.extra_forwards", "count"}, {"utp.pcie_mib", "MiB"},
		} {
			count(c.metric, c.unit)
		}
		if h, m := tr.counts["tcache.hits"], tr.counts["tcache.misses"]; h+m > 0 {
			r.Metrics["tcache.hit_ratio"] = stat{Value: h / (h + m), Unit: "ratio", N: cycles}
		}
	}
}
