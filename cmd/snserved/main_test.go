package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/serve"
	"repro/internal/workload"
)

// startDaemon runs the daemon on an ephemeral port and returns a
// client plus the channel run's error lands on.
func startDaemon(t *testing.T, o options, out *bytes.Buffer) (*serve.Client, context.CancelFunc, chan error) {
	t.Helper()
	o.addr = "127.0.0.1:0"
	ctx, cancel := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	errCh := make(chan error, 1)
	go func() { errCh <- run(ctx, o, ready, out) }()
	select {
	case addr := <-ready:
		return &serve.Client{BaseURL: "http://" + addr}, cancel, errCh
	case err := <-errCh:
		cancel()
		t.Fatalf("daemon failed to start: %v", err)
		return nil, nil, nil
	}
}

// End to end: serve, submit over HTTP, drain via the API, exit
// cleanly, and leave a request log that snsched can replay.
func TestServeSubmitDrainExit(t *testing.T) {
	dir := t.TempDir()
	logPath := filepath.Join(dir, "requests.trace")
	var out bytes.Buffer
	o := options{device: "k40c", devices: 2, policyArg: "packing",
		queue: 8, spacingMS: 1, logPath: logPath, exitAfterDrain: true}
	c, cancel, errCh := startDaemon(t, o, &out)
	defer cancel()

	if err := c.Healthz(); err != nil {
		t.Fatal(err)
	}
	for _, req := range []serve.SubmitRequest{
		{Tenant: "a", ID: "x", Network: "AlexNet", Batch: 16, Iterations: 2},
		{Tenant: "b", ID: "y", Network: "AlexNet", Schedule: "16,32", Iterations: 2},
	} {
		if _, err := c.Submit(req); err != nil {
			t.Fatal(err)
		}
	}
	d, err := c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if d.Jobs != 2 {
		t.Errorf("drained %d jobs, want 2", d.Jobs)
	}

	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after drain")
	}
	for _, want := range []string{"listening on", "final schedule", "per-device utilization", "drained: 2 jobs"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("output missing %q:\n%s", want, out.String())
		}
	}

	// The persisted request log is a valid trace holding both jobs.
	data, err := os.ReadFile(logPath)
	if err != nil {
		t.Fatal(err)
	}
	trace, err := workload.ParseTrace(bytes.NewReader(data))
	if err != nil {
		t.Fatalf("request log does not parse: %v", err)
	}
	if len(trace) != 2 {
		t.Errorf("request log holds %d jobs, want 2", len(trace))
	}
	if string(data) != d.ReplayLog {
		t.Error("request-log file differs from the drain summary's replay log")
	}
}

// A signal (context cancellation) also drains and exits cleanly.
func TestServeSignalDrains(t *testing.T) {
	var out bytes.Buffer
	o := options{device: "k40c", devices: 1, policyArg: "fifo", queue: 4, spacingMS: 1}
	c, cancel, errCh := startDaemon(t, o, &out)
	if _, err := c.Submit(serve.SubmitRequest{Network: "AlexNet", Batch: 16}); err != nil {
		t.Fatal(err)
	}
	cancel()
	select {
	case err := <-errCh:
		if err != nil {
			t.Fatalf("daemon exit after signal: %v", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("daemon did not exit after cancellation")
	}
	if !strings.Contains(out.String(), "drained: 1 jobs") {
		t.Errorf("signal drain summary missing:\n%s", out.String())
	}
}

// Each rejection names every value the flag accepts.
func TestRunRejectsBadFlags(t *testing.T) {
	ctx := context.Background()
	for _, c := range []struct {
		o    options
		want []string
	}{
		{options{device: "nope", policyArg: "packing"}, []string{"k40c", "titanxp"}},
		{options{device: "k40c", policyArg: "nope"}, sched.PolicyNames()},
	} {
		c.o.addr = "127.0.0.1:0"
		err := run(ctx, c.o, nil, &bytes.Buffer{})
		if err == nil {
			t.Fatalf("%+v accepted", c.o)
		}
		for _, v := range c.want {
			if !strings.Contains(err.Error(), v) {
				t.Errorf("error %q does not name accepted value %q", err, v)
			}
		}
	}
}
