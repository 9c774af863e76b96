// The serve example runs the whole serving stack in one process: it
// starts the concurrent job-submission service on a local port, drives
// it with the load generator (every client a tenant, shapes drawn from
// the bundled static and dynamic traces), drains it, and then proves
// the determinism claim — replaying the service's request log through
// a fresh scheduler reproduces the drained schedule byte-identically.
package main

import (
	"fmt"
	"log"
	"net"
	"net/http"
	"reflect"
	"strings"
	"time"

	"repro/internal/hw"
	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

func main() {
	log.SetFlags(0)
	log.SetPrefix("serve: ")

	cluster := sched.Cluster{Device: hw.TeslaK40c, Devices: 2}
	svc, err := serve.New(serve.Config{Cluster: cluster, Policy: sched.Packing, QueueDepth: 32})
	if err != nil {
		log.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		log.Fatal(err)
	}
	server := &http.Server{Handler: svc.Handler()}
	go func() { _ = server.Serve(ln) }()
	defer server.Close()
	addr := "http://" + ln.Addr().String()
	fmt.Printf("service on %s: 2 x %s, policy packing\n\n", addr, cluster.Device.Name)

	rep, err := serve.RunLoad(serve.LoadConfig{
		Target:        &serve.Client{BaseURL: addr},
		Clients:       4,
		JobsPerClient: 6,
		Drain:         true,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("load: %d submitted (%d retries, %d failed) in %v — %.0f req/s, p50 %v, p99 %v\n",
		rep.Submitted, rep.Retries, rep.Failed, rep.Elapsed.Round(time.Millisecond),
		rep.Throughput, rep.P50.Round(time.Microsecond), rep.P99.Round(time.Microsecond))

	final := rep.Drained.Result
	fmt.Printf("drained: %d jobs (%d rejected), makespan %v, cluster mem util %.1f%%, compute util %.1f%%\n\n",
		rep.Drained.Jobs, rep.Drained.Rejected, final.Makespan,
		100*final.Utilization, 100*final.ComputeUtilization)

	// The determinism-of-replay argument, executed: the request log is
	// a plain workload trace; replaying it offline through a fresh
	// scheduler (exactly what `snsched -trace` does) reproduces the
	// service's drained schedule byte-identically.
	trace, err := workload.ParseTrace(strings.NewReader(rep.Drained.ReplayLog))
	if err != nil {
		log.Fatalf("request log does not parse: %v", err)
	}
	fresh, err := sched.NewScheduler(cluster, sched.Packing)
	if err != nil {
		log.Fatal(err)
	}
	replayed, err := fresh.Run(sched.JobsFromTrace(trace))
	if err != nil {
		log.Fatal(err)
	}
	identical := reflect.DeepEqual(replayed.Jobs, final.Jobs) &&
		fmt.Sprintf("%+v", replayed) == fmt.Sprintf("%+v", final)
	fmt.Printf("request log: %d jobs; offline replay byte-identical: %v\n", len(trace), identical)
	if !identical {
		log.Fatal("replay diverged from the served schedule")
	}
}
