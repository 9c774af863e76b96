// Command snserved runs the concurrent job-submission service over a
// simulated GPU cluster: the long-lived entry point that turns the
// trace-replay scheduler (cmd/snsched) into an HTTP service accepting
// training-job requests from many tenants at once.
//
// The service records every admitted job in a deterministic request
// log (a workload trace); replaying that log with
// "snsched -trace <file>" reproduces every per-job result
// byte-identically. On SIGINT/SIGTERM — or, with -exit-after-drain,
// on a POST /v1/drain — the service drains its admission queue,
// prints the final schedule, and exits cleanly.
//
// Usage:
//
//	snserved                                  # 2x K40c, packing policy, :8080
//	snserved -addr 127.0.0.1:9090 -policy priority -devices 4
//	snserved -shards 8                        # 8 per-tenant admission shards
//	snserved -snapshot-every 256              # advance the replay watermark less often
//	snserved -log requests.trace              # export the replayable log at drain
//	snserved -wal-dir wal/                    # durable WAL: every ack is fsynced first, survives kill -9; restart recovers
//	snserved -exit-after-drain                # exit after an API drain (CI smoke)
//
// Tenants hash onto -shards admission partitions, each with its own
// bounded queues and round-robin fairness; one sequencer pops every
// shard in index order and appends the pass to the one request log,
// and every result replayed from that log is deterministic regardless
// of the shard count. Structured logs (tenant, shard, seq, state
// transitions) go to stderr; -log-level debug traces every
// accept/sequence.
//
// The API (all JSON unless noted):
//
//	POST /v1/jobs        {"tenant","id","network","batch","schedule","manager","priority","iterations"}
//	GET  /v1/jobs        list all jobs
//	GET  /v1/jobs/{id}   one job's status and projected schedule
//	GET  /v1/metrics     cluster snapshot (?wait_jobs=N&wait_ms=M long-polls)
//	POST /v1/drain       stop admission, flush, return the final schedule
//	GET  /v1/replay-log  the deterministic request log (text/plain)
//	GET  /v1/checkpoint  resumable replay checkpoint
//	GET  /v1/healthz     liveness
package main

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/hw"
	"repro/internal/metrics"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

type options struct {
	addr           string
	device         string
	devices        int
	policyArg      string
	shards         int
	queue          int
	quota          int
	spacingMS      int64
	snapshotEvery  int
	logPath        string
	logLevel       string
	walDir         string
	exitAfterDrain bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("snserved: ")
	var o options
	flag.StringVar(&o.addr, "addr", "127.0.0.1:8080", "listen address")
	flag.StringVar(&o.device, "device", "k40c", "device profile: k40c or titanxp")
	flag.IntVar(&o.devices, "devices", 2, "number of GPUs in the cluster")
	flag.StringVar(&o.policyArg, "policy", "packing", "scheduler policy: fifo, priority, packing or topo")
	flag.IntVar(&o.shards, "shards", 1, "per-tenant admission shards (tenants hash onto shards; results stay deterministic)")
	flag.IntVar(&o.queue, "queue", serve.DefaultQueueDepth, "bounded admission queue depth per shard")
	flag.IntVar(&o.quota, "tenant-quota", 0, "max jobs per tenant over the service lifetime (0 = unlimited)")
	flag.Int64Var(&o.spacingMS, "spacing", 1, "virtual arrival gap between sequenced jobs (ms)")
	flag.IntVar(&o.snapshotEvery, "snapshot-every", serve.DefaultSnapshotEvery, "advance the resumable-replay watermark every N sequenced jobs")
	flag.StringVar(&o.logPath, "log", "", "export the deterministic request log to this file after the drain (crash durability is -wal-dir's job)")
	flag.StringVar(&o.walDir, "wal-dir", "", "durable write-ahead log directory; on start the service recovers whatever the directory holds (truncating a torn tail) and resumes")
	flag.StringVar(&o.logLevel, "log-level", "info", "structured log level on stderr: debug, info, warn or error")
	flag.BoolVar(&o.exitAfterDrain, "exit-after-drain", false, "exit cleanly once a POST /v1/drain completes")
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := run(ctx, o, nil, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

// run starts the service, reports its bound address on ready (when
// non-nil), and serves until the context is canceled or — with
// exit-after-drain — the service is drained via the API. It always
// drains before returning and prints the final schedule to w.
func run(ctx context.Context, o options, ready chan<- string, w io.Writer) error {
	dev, err := hw.DeviceByName(o.device)
	if err != nil {
		return err
	}
	pol, ok := sched.PolicyByName(o.policyArg)
	if !ok {
		return fmt.Errorf("unknown policy %q (have %s)", o.policyArg, strings.Join(sched.PolicyNames(), ", "))
	}
	var level slog.Level
	if o.logLevel == "" {
		o.logLevel = "info"
	}
	if err := level.UnmarshalText([]byte(o.logLevel)); err != nil {
		return fmt.Errorf("unknown log level %q (have debug, info, warn, error)", o.logLevel)
	}
	lg := slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))

	cfg := serve.Config{
		Cluster:       sched.Cluster{Device: dev, Devices: o.devices},
		Policy:        pol,
		Shards:        o.shards,
		QueueDepth:    o.queue,
		TenantQuota:   o.quota,
		SpacingMS:     o.spacingMS,
		SnapshotEvery: o.snapshotEvery,
		WALDir:        o.walDir,
		Logger:        lg,
	}
	var logFile *os.File
	if o.logPath != "" {
		// Created now so a bad path fails before serving; the merged log
		// is exported into it once, after the drain.
		f, err := os.Create(o.logPath)
		if err != nil {
			return err
		}
		defer f.Close() // error paths; the success path checks Close
		logFile = f
	}

	svc, err := serve.New(cfg)
	if err != nil {
		return err
	}
	if rec := svc.Recovered(); rec != nil {
		if rec.Torn != nil {
			fmt.Fprintf(w, "snserved: recovered %d jobs from %s (torn tail truncated at segment %d offset %d: %s)\n",
				len(rec.Jobs), o.walDir, rec.Torn.Segment, rec.Torn.Offset, rec.Torn.Reason)
		} else if len(rec.Jobs) > 0 {
			fmt.Fprintf(w, "snserved: recovered %d jobs from %s (%d segment(s), clean tail)\n",
				len(rec.Jobs), o.walDir, rec.Segments)
		}
	}
	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	if ready != nil {
		ready <- ln.Addr().String()
	}
	fmt.Fprintf(w, "snserved: listening on %s — %d x %s (%.2f GiB usable each), policy %s, %d shard(s), queue %d\n",
		ln.Addr(), o.devices, dev.Name, float64(dev.UsableBytes)/(1<<30), pol.Name, svc.Shards(), cfg.QueueDepth)

	server := &http.Server{Handler: svc.Handler()}
	serveErr := make(chan error, 1)
	go func() { serveErr <- server.Serve(ln) }()

	select {
	case <-ctx.Done():
	case err := <-serveErr:
		return err
	case <-drainedOrNever(svc, o.exitAfterDrain):
	}

	res, err := svc.Drain()
	if err != nil {
		return err
	}
	shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := server.Shutdown(shutdownCtx); err != nil {
		return err
	}
	summary(w, res)
	// Release the durability layer and export the request log with real
	// fsyncs on the signal path too (not just after an API drain): a
	// clean exit must leave both fully on disk, and a failure must reach
	// the exit code rather than vanish with the process.
	if err := svc.Close(); err != nil {
		return err
	}
	if logFile != nil {
		if _, err := io.WriteString(logFile, svc.ReplayLog()); err != nil {
			return fmt.Errorf("request log write: %w", err)
		}
		if err := logFile.Sync(); err != nil {
			return fmt.Errorf("request log sync: %w", err)
		}
		if err := logFile.Close(); err != nil {
			return fmt.Errorf("request log close: %w", err)
		}
		fmt.Fprintf(w, "request log: %s (replay with: snsched -trace %s)\n", o.logPath, o.logPath)
	}
	return nil
}

// drainedOrNever returns the service's drain signal, or a channel that
// never fires when exit-after-drain is off.
func drainedOrNever(svc *serve.Service, exitAfterDrain bool) <-chan struct{} {
	if exitAfterDrain {
		return svc.Drained()
	}
	return make(chan struct{})
}

// summary prints the final schedule: per-job outcomes and per-device
// utilization, the same numbers a replay of the request log produces.
func summary(w io.Writer, res *sched.Result) {
	rejected := 0
	jt := metrics.NewTable(fmt.Sprintf("final schedule (policy %s): per-job results", res.Policy),
		"job", "network", "batch", "prio", "gpu", "arrival", "wait", "jct", "preempt")
	for _, j := range res.Jobs {
		batch := workload.BatchLabel(j.Batch, j.BatchSchedule)
		if j.Rejected {
			rejected++
			jt.Add(j.ID, j.Network, batch, fmt.Sprint(j.Priority), "-",
				fmt.Sprintf("%dms", int64(j.Arrival)/1e6), "-", "rejected", "-")
			continue
		}
		jt.Add(j.ID, j.Network, batch, fmt.Sprint(j.Priority), fmt.Sprint(j.Device),
			fmt.Sprintf("%dms", int64(j.Arrival)/1e6), j.Wait.String(), j.JCT.String(),
			fmt.Sprint(j.Preemptions))
	}
	fmt.Fprintln(w, jt.String())

	dt := metrics.NewTable("per-device utilization",
		"gpu", "busy", "busy%", "peak reserved MiB", "mem util%", "iterations")
	for i, d := range res.Devices {
		dt.Add(fmt.Sprint(i), d.Busy.String(), fmt.Sprintf("%.1f", 100*d.BusyFrac),
			metrics.MiB(d.PeakReserved), fmt.Sprintf("%.1f", 100*d.MemUtil), fmt.Sprint(d.Iterations))
	}
	fmt.Fprintln(w, dt.String())

	fmt.Fprintf(w, "drained: %d jobs (%d rejected), makespan %v, cluster mem util %.1f%%, compute util %.1f%%\n",
		len(res.Jobs), rejected, res.Makespan, 100*res.Utilization, 100*res.ComputeUtilization)
}
