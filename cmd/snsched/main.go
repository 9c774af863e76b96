// Command snsched replays a multi-tenant workload trace on a
// simulated GPU cluster and prints per-job JCT/queueing tables and
// per-device utilization under each scheduling policy (FIFO,
// priority with preemption, memory-aware packing).
//
// The replay is fully deterministic: admission decisions use the
// core runtime's dry-run peak/iteration estimates and the cluster
// runs in virtual time, so two invocations on the same trace produce
// byte-identical output — including runs whose scenario scripts device
// failures mid-flight.
//
// Usage:
//
//	snsched                         # static scenario, all policies, 2x K40c
//	snsched -scenario list          # list the bundled scenarios
//	snsched -scenario gang          # 1000 multi-GPU gangs, 256-device cluster
//	snsched -scenario cotenant      # co-tenancy trace under cross-job planning
//	snsched -scenario faults        # scripted device failures and recoveries
//	snsched -trace jobs.trace       # replay a custom trace file
//	snsched -policy packing -devices 4 -device titanxp
//	snsched -scenario faults -dump-trace   # print a scenario's trace file
//
// Each scenario bundles a trace with the cluster it targets (size,
// topology, all-reduce overlap, cross-job planning, fault plan);
// -devices, -device and -trace override the pieces individually. A
// trace file may script device faults alongside jobs
// ("fault fail dev=4 at=1500", "fault recover dev=4 at=2s"); victims
// restore from their last iteration-boundary checkpoint and multi-GPU
// gangs shrink elastically to their surviving members when they can.
//
// Dynamic jobs declare a per-iteration batch schedule in the trace's
// batch field ("128x2,512" runs two iterations at 128 then one at
// 512); admission reserves the worst-case shape, so a ramping job can
// never OOM its device mid-run. Multi-GPU jobs declare a gang size in
// the trace's optional gpus=N field. -log-level emits the structured
// admission/preemption/failure log on stderr for a single -policy;
// with -policy all it is a usage error, since the policies replay in
// parallel and their logs would interleave.
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"os"
	"strings"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/policy"
	"repro/internal/sched"
	"repro/internal/workload"
)

type options struct {
	tracePath string
	scenario  string
	devices   int
	device    string
	policyArg string
	logLevel  string
}

// scenario is one bundled preset: a trace plus the cluster shape it
// was built for.
type scenario struct {
	name string
	desc string
	// jobs/faults produce the bundled trace; devices is the cluster
	// size the trace targets; options assemble the cluster (topology,
	// overlap, cross-job planning, fault plan) via sched.NewCluster.
	jobs    func() ([]workload.TraceJob, []workload.TraceFault)
	devices int
	opts    func(faults []workload.TraceFault) []sched.Option
}

// plain wraps a fault-free bundled trace.
func plain(f func() []workload.TraceJob) func() ([]workload.TraceJob, []workload.TraceFault) {
	return func() ([]workload.TraceJob, []workload.TraceFault) { return f(), nil }
}

// faultOpt converts trace fault events into the cluster option; it is
// a no-op for fault-free traces, so every scenario threads it.
func faultOpt(faults []workload.TraceFault) []sched.Option {
	if len(faults) == 0 {
		return nil
	}
	return []sched.Option{sched.WithFaultPlan(sched.FaultsFromTrace(faults))}
}

// scenarios lists the bundled presets in listing order.
var scenarios = []scenario{
	{
		name: "static", desc: "bundled multi-tenant trace on 2 devices (the default)",
		jobs: plain(workload.DefaultTrace), devices: 2, opts: faultOpt,
	},
	{
		name: "dynamic", desc: "dynamic per-iteration batch schedules, worst-case admission",
		jobs: plain(workload.DefaultDynamicTrace), devices: 2, opts: faultOpt,
	},
	{
		name: "gang", desc: "1000 multi-GPU gangs on a 256-device multi-node cluster, overlapped all-reduce",
		jobs: plain(workload.GangTrace), devices: workload.GangClusterDevices,
		opts: func(faults []workload.TraceFault) []sched.Option {
			return append([]sched.Option{sched.WithTopology(hw.DefaultTopology()), sched.WithOverlap()},
				faultOpt(faults)...)
		},
	},
	{
		name: "cotenant", desc: "co-tenancy arrival waves under interference-aware cross-job planning (8 GiB spill)",
		jobs: plain(workload.CoTenantTrace), devices: workload.CoTenantClusterDevices,
		opts: func(faults []workload.TraceFault) []sched.Option {
			return append([]sched.Option{sched.WithCrossJob(8 * hw.GiB)}, faultOpt(faults)...)
		},
	},
	{
		name: "crossjob", desc: "the static trace under cross-job planning (default spill pool)",
		jobs: plain(workload.DefaultTrace), devices: 2,
		opts: func(faults []workload.TraceFault) []sched.Option {
			return append([]sched.Option{sched.WithCrossJob(0)}, faultOpt(faults)...)
		},
	},
	{
		name: "faults", desc: "scripted device failures: checkpoint restores and elastic gang shrink on 8 devices",
		jobs: workload.FaultTrace, devices: workload.FaultClusterDevices,
		opts: func(faults []workload.TraceFault) []sched.Option {
			return append([]sched.Option{sched.WithTopology(hw.DefaultTopology()), sched.WithOverlap()},
				faultOpt(faults)...)
		},
	},
}

func scenarioByName(name string) (scenario, bool) {
	for _, s := range scenarios {
		if s.name == name {
			return s, true
		}
	}
	return scenario{}, false
}

func scenarioNames() string {
	names := make([]string, len(scenarios))
	for i, s := range scenarios {
		names[i] = s.name
	}
	return strings.Join(names, ", ")
}

// listScenarios renders the -scenario list table.
func listScenarios(w io.Writer) {
	t := metrics.NewTable("bundled scenarios (-scenario NAME)", "name", "devices", "description")
	for _, s := range scenarios {
		t.Add(s.name, fmt.Sprint(s.devices), s.desc)
	}
	fmt.Fprintln(w, t.String())
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("snsched: ")
	var (
		o    options
		dump bool
	)
	flag.StringVar(&o.scenario, "scenario", "static",
		"bundled scenario: "+scenarioNames()+" (or list)")
	flag.StringVar(&o.tracePath, "trace", "", "trace file replacing the scenario's bundled trace (may script fault events)")
	flag.IntVar(&o.devices, "devices", 0, "number of GPUs in the cluster (default: the scenario's size)")
	flag.StringVar(&o.device, "device", "k40c", "device profile: k40c or titanxp")
	flag.StringVar(&o.policyArg, "policy", "all", "scheduler policy: fifo, priority, packing, topo or all")
	flag.StringVar(&o.logLevel, "log-level", "", "structured scheduling log on stderr: debug, info, warn or error (default: off; needs a single -policy)")
	flag.BoolVar(&dump, "dump-trace", false, "print the scenario's bundled trace in the trace-file format and exit")
	flag.Parse()

	if o.scenario == "list" {
		listScenarios(os.Stdout)
		return
	}
	if dump {
		sc, ok := scenarioByName(o.scenario)
		if !ok {
			log.Fatalf("unknown scenario %q (have %s, list)", o.scenario, scenarioNames())
		}
		jobs, faults := sc.jobs()
		fmt.Print(workload.FormatTraceEvents(jobs, faults))
		return
	}
	if err := run(o, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(o options, w io.Writer) error {
	if o.logLevel != "" && o.policyArg == "all" {
		return fmt.Errorf("-log-level needs a single -policy (%s): -policy all replays in parallel and would interleave the logs",
			strings.Join(sched.PolicyNames(), ", "))
	}
	if o.scenario == "" {
		o.scenario = "static"
	}
	sc, ok := scenarioByName(o.scenario)
	if !ok {
		return fmt.Errorf("unknown scenario %q (have %s, list)", o.scenario, scenarioNames())
	}
	trace, faults := sc.jobs()
	if o.devices <= 0 {
		o.devices = sc.devices
	}
	if o.tracePath != "" {
		f, err := os.Open(o.tracePath)
		if err != nil {
			return err
		}
		defer f.Close()
		// A malformed trace is a user error: fail with the file and the
		// offending line (the parser names it, and a gang wider than the
		// cluster dies here, not hours into the replay), never a bare
		// message. Fault events ride in the same file.
		if trace, faults, err = workload.ParseTraceEvents(f, o.devices); err != nil {
			return fmt.Errorf("%s: %w", o.tracePath, err)
		}
	}

	dev, err := hw.DeviceByName(o.device)
	if err != nil {
		return err
	}
	cluster, err := sched.NewCluster(sched.Uniform(dev, o.devices), sc.opts(faults)...)
	if err != nil {
		return err
	}
	jobs := sched.JobsFromTrace(trace)

	var lg *slog.Logger
	if o.logLevel != "" {
		var level slog.Level
		if err := level.UnmarshalText([]byte(o.logLevel)); err != nil {
			return fmt.Errorf("bad -log-level %q (have debug, info, warn, error)", o.logLevel)
		}
		lg = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	}

	var results []*sched.Result
	if o.policyArg == "all" {
		if results, err = policy.CompareSchedulers(cluster, jobs); err != nil {
			return err
		}
	} else {
		p, ok := sched.PolicyByName(o.policyArg)
		if !ok {
			return fmt.Errorf("unknown policy %q (have %s)", o.policyArg, strings.Join(append(sched.PolicyNames(), "all"), ", "))
		}
		s, err := sched.NewScheduler(cluster, p)
		if err != nil {
			return err
		}
		s.SetLogger(lg)
		r, err := s.Run(jobs)
		if err != nil {
			return err
		}
		results = []*sched.Result{r}
	}

	fmt.Fprintf(w, "scenario %s: %d x %s (%.2f GiB usable each), %d jobs",
		o.scenario, cluster.Devices, dev.Name, float64(cluster.Capacity())/(1<<30), len(jobs))
	if n := len(faults); n > 0 {
		fmt.Fprintf(w, ", %d fault events", n)
	}
	fmt.Fprint(w, "\n\n")
	for _, r := range results {
		render(w, r)
	}
	if len(results) > 1 {
		renderComparison(w, results)
	}
	return nil
}

// render prints one policy's per-job and per-device tables, plus the
// fault-recovery table when the run scripted device faults.
func render(w io.Writer, r *sched.Result) {
	faulted := !r.Cluster.Faults.Empty()
	jt := metrics.NewTable(fmt.Sprintf("policy %s: per-job schedule", r.Policy),
		"job", "network", "batch", "manager", "prio", "gpu", "arrival", "wait", "jct", "preempt")
	for _, j := range r.Jobs {
		mgr := j.Manager
		if mgr == "" {
			mgr = "-"
		}
		batch := workload.BatchLabel(j.Batch, j.BatchSchedule)
		if j.Rejected {
			jt.Add(j.ID, j.Network, batch, mgr, fmt.Sprint(j.Priority),
				"-", ms(int64(j.Arrival)), "-", "rejected", "-")
			continue
		}
		jt.Add(j.ID, j.Network, batch, mgr, fmt.Sprint(j.Priority),
			gangLabel(j), ms(int64(j.Arrival)), j.Wait.String(), j.JCT.String(),
			fmt.Sprint(j.Preemptions))
	}
	fmt.Fprintln(w, jt.String())

	if faulted {
		ft := metrics.NewTable(fmt.Sprintf("policy %s: fault recovery", r.Policy),
			"job", "restores", "shrinks", "lost iters", "final placement")
		for _, j := range r.Jobs {
			if j.Restores+j.Shrinks+j.LostIterations == 0 {
				continue
			}
			ft.Add(j.ID, fmt.Sprint(j.Restores), fmt.Sprint(j.Shrinks),
				fmt.Sprint(j.LostIterations), gangLabel(j))
		}
		fmt.Fprintln(w, ft.String())
	}

	cols := []string{"gpu", "busy", "busy%", "peak reserved MiB", "mem util%", "residents", "spill MiB", "iterations"}
	if faulted {
		cols = append(cols, "fails", "downtime")
	}
	dt := metrics.NewTable(fmt.Sprintf("policy %s: per-device utilization", r.Policy), cols...)
	for i, d := range r.Devices {
		row := []string{fmt.Sprint(i), d.Busy.String(), pct(d.BusyFrac), metrics.MiB(d.PeakReserved),
			pct(d.MemUtil), fmt.Sprint(d.PeakResidents), metrics.MiB(d.SpillPeak),
			fmt.Sprint(d.Iterations)}
		if faulted {
			row = append(row, fmt.Sprint(d.Failures), d.Downtime.String())
		}
		dt.Add(row...)
	}
	fmt.Fprintln(w, dt.String())
}

// renderComparison prints the policy-vs-policy summary.
func renderComparison(w io.Writer, results []*sched.Result) {
	faulted := len(results) > 0 && !results[0].Cluster.Faults.Empty()
	cols := []string{"policy", "makespan", "cluster mem util%", "compute util%", "mean jct", "mean wait", "preemptions", "rejected"}
	if faulted {
		cols = append(cols, "restores", "shrinks")
	}
	t := metrics.NewTable("scheduler policy comparison", cols...)
	for _, r := range results {
		pre, rej, res, shr := 0, 0, 0, 0
		for _, j := range r.Jobs {
			pre += j.Preemptions
			res += j.Restores
			shr += j.Shrinks
			if j.Rejected {
				rej++
			}
		}
		row := []string{r.Policy, r.Makespan.String(), pct(r.Utilization), pct(r.ComputeUtilization),
			r.MeanJCT().String(), r.MeanWait().String(), fmt.Sprint(pre), fmt.Sprint(rej)}
		if faulted {
			row = append(row, fmt.Sprint(res), fmt.Sprint(shr))
		}
		t.Add(row...)
	}
	fmt.Fprintln(w, t.String())
}

// gangLabel renders a job's placement: the device for singles, the
// full gang ("0+1+2+3") for multi-GPU jobs.
func gangLabel(j sched.JobResult) string {
	if len(j.Gang) == 0 {
		return fmt.Sprint(j.Device)
	}
	parts := make([]string, len(j.Gang))
	for i, g := range j.Gang {
		parts[i] = fmt.Sprint(g)
	}
	return strings.Join(parts, "+")
}

func ms(ns int64) string { return fmt.Sprintf("%dms", ns/1e6) }

func pct(f float64) string { return fmt.Sprintf("%.1f", 100*f) }
