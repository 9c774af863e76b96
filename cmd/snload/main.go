// Command snload is the load generator for snserved: it fires N
// concurrent clients (each its own tenant) at the service's HTTP API,
// submitting jobs drawn from the bundled workload traces, and reports
// submission throughput and latency percentiles. With -drain it then
// drains the service and summarizes the final schedule — the CI smoke
// path asserting a clean end-to-end run.
//
// Usage:
//
//	snload -addr http://127.0.0.1:8080
//	snload -addr http://127.0.0.1:8080 -clients 8 -jobs 32 -drain
//	snload -addr http://127.0.0.1:8080 -templates dynamic
package main

import (
	"flag"
	"fmt"
	"io"
	"log"
	"os"
	"time"

	"repro/internal/metrics"
	"repro/internal/serve"
	"repro/internal/workload"
)

type options struct {
	addr       string
	clients    int
	jobs       int
	retries    int
	templates  string
	idempotent bool
	think      time.Duration
	drain      bool
}

func main() {
	log.SetFlags(0)
	log.SetPrefix("snload: ")
	var o options
	flag.StringVar(&o.addr, "addr", "http://127.0.0.1:8080", "snserved base URL")
	flag.IntVar(&o.clients, "clients", 4, "concurrent clients (one tenant each)")
	flag.IntVar(&o.jobs, "jobs", 8, "jobs submitted per client")
	flag.IntVar(&o.retries, "retries", 50, "queue-full retries per submission")
	flag.StringVar(&o.templates, "templates", "mixed", "job templates: static, dynamic or mixed")
	flag.BoolVar(&o.idempotent, "idempotent", false, "attach idempotency keys and retry transport failures (rides out a service crash + restart)")
	flag.DurationVar(&o.think, "think", 0, "per-client delay between submissions")
	flag.BoolVar(&o.drain, "drain", false, "drain the service after the run and print the final schedule")
	flag.Parse()

	if err := run(o, os.Stdout); err != nil {
		log.Fatal(err)
	}
}

func run(o options, w io.Writer) error {
	var templates []workload.TraceJob
	switch o.templates {
	case "static":
		templates = workload.DefaultTrace()
	case "dynamic":
		templates = workload.DefaultDynamicTrace()
	case "mixed":
		templates = serve.DefaultTemplates()
	default:
		return fmt.Errorf("unknown template set %q (have static, dynamic, mixed)", o.templates)
	}

	client := &serve.Client{BaseURL: o.addr}
	if err := client.Healthz(); err != nil {
		return fmt.Errorf("service not reachable at %s: %w", o.addr, err)
	}
	rep, err := serve.RunLoad(serve.LoadConfig{
		Target:        client,
		Clients:       o.clients,
		JobsPerClient: o.jobs,
		Templates:     templates,
		SubmitRetries: o.retries,
		Idempotent:    o.idempotent,
		ThinkTime:     o.think,
		Drain:         o.drain,
	})
	if err != nil {
		return err
	}

	t := metrics.NewTable(fmt.Sprintf("load run: %d clients x %d jobs against %s", o.clients, o.jobs, o.addr),
		"submitted", "deduped", "retries", "exhausted", "quota-denied", "failed", "elapsed", "req/s", "p50", "p90", "p99", "max")
	t.Add(fmt.Sprint(rep.Submitted), fmt.Sprint(rep.Deduped), fmt.Sprint(rep.Retries),
		fmt.Sprint(rep.Exhausted), fmt.Sprint(rep.QuotaDenied),
		fmt.Sprint(rep.Failed), rep.Elapsed.Round(time.Millisecond).String(),
		fmt.Sprintf("%.0f", rep.Throughput),
		rep.P50.Round(time.Microsecond).String(), rep.P90.Round(time.Microsecond).String(),
		rep.P99.Round(time.Microsecond).String(), rep.Max.Round(time.Microsecond).String())
	fmt.Fprintln(w, t.String())

	if len(rep.Shards) > 1 {
		st := metrics.NewTable("per-shard submission latency (shard assignment from the submit responses)",
			"shard", "submitted", "p50", "p99")
		for _, sl := range rep.Shards {
			st.Add(fmt.Sprint(sl.Shard), fmt.Sprint(sl.Submitted),
				sl.P50.Round(time.Microsecond).String(), sl.P99.Round(time.Microsecond).String())
		}
		fmt.Fprintln(w, st.String())
	}

	if rep.Drained != nil {
		r := rep.Drained.Result
		fmt.Fprintf(w, "drained: %d jobs (%d rejected), makespan %v, cluster mem util %.1f%%, compute util %.1f%%\n",
			rep.Drained.Jobs, rep.Drained.Rejected, r.Makespan, 100*r.Utilization, 100*r.ComputeUtilization)
	}
	if rep.Failed > 0 {
		return fmt.Errorf("%d submissions failed", rep.Failed)
	}
	return nil
}
