package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/sched"
	"repro/internal/workload"
)

func startServer(t *testing.T, cfg Config) (*Client, *Service) {
	t.Helper()
	s := mustNew(t, cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(ts.Close)
	return &Client{BaseURL: ts.URL}, s
}

func TestHTTPEndToEnd(t *testing.T) {
	c, _ := startServer(t, Config{})
	if err := c.Healthz(); err != nil {
		t.Fatalf("healthz: %v", err)
	}
	st, err := c.Submit(SubmitRequest{Tenant: "web", ID: "a", Network: "AlexNet", Batch: 16, Iterations: 2})
	if err != nil {
		t.Fatal(err)
	}
	if st.ID != "web/a" {
		t.Errorf("submitted id = %q", st.ID)
	}
	if _, err := c.Submit(SubmitRequest{Tenant: "web", ID: "dyn", Network: "AlexNet", Schedule: "16x2,32"}); err != nil {
		t.Fatal(err)
	}
	m, err := c.MetricsWait(2, 5*time.Second)
	if err != nil {
		t.Fatal(err)
	}
	if m.JobsSequenced != 2 {
		t.Fatalf("metrics sequenced = %d, want 2", m.JobsSequenced)
	}
	if m2, err := c.Metrics(); err != nil || m2.JobsSequenced != 2 {
		t.Fatalf("plain metrics = %+v, %v", m2, err)
	}
	st, err = c.Status("web/a")
	if err != nil {
		t.Fatal(err)
	}
	if st.State != StateScheduled || st.Result == nil {
		t.Errorf("status = %+v, want scheduled with result", st)
	}
	jobs, err := c.Jobs()
	if err != nil {
		t.Fatal(err)
	}
	if len(jobs) != 2 {
		t.Errorf("job list = %d entries, want 2", len(jobs))
	}
	logText, err := c.ReplayLog()
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(logText, workload.TraceHeader) {
		t.Errorf("replay log missing header:\n%s", logText)
	}
	d, err := c.Drain()
	if err != nil {
		t.Fatal(err)
	}
	if d.Jobs != 2 || d.Result == nil || d.ReplayLog != logText {
		t.Errorf("drain summary = jobs %d, log match %v", d.Jobs, d.ReplayLog == logText)
	}
	// The dynamic job's schedule survives the round trip.
	if !strings.Contains(d.ReplayLog, "16x2,32") {
		t.Errorf("replay log lost the batch schedule:\n%s", d.ReplayLog)
	}
}

func TestHTTPErrorMapping(t *testing.T) {
	c, s := startServer(t, Config{Manual: true, QueueDepth: 1, TenantQuota: 2})
	codes := func(req SubmitRequest) int {
		_, err := c.Submit(req)
		var ae *APIError
		if !errors.As(err, &ae) {
			t.Fatalf("submit %+v: err = %v, want APIError", req, err)
		}
		return ae.Status
	}
	if got := codes(SubmitRequest{Network: "NopeNet", Batch: 4}); got != http.StatusBadRequest {
		t.Errorf("unknown network -> %d, want 400", got)
	}
	if _, err := c.Submit(small("t", "a")); err != nil {
		t.Fatal(err)
	}
	if got := codes(small("t", "a")); got != http.StatusConflict {
		t.Errorf("duplicate -> %d, want 409", got)
	}
	if got := codes(small("t", "b")); got != http.StatusTooManyRequests {
		t.Errorf("queue full -> %d, want 429", got)
	}
	s.Advance(0)
	if _, err := c.Submit(small("t", "b")); err != nil {
		t.Fatal(err)
	}
	s.Advance(0)
	if got := codes(small("t", "c")); got != http.StatusTooManyRequests {
		t.Errorf("quota -> %d, want 429", got)
	}
	// Sentinels survive the HTTP boundary, and the wire error is
	// self-describing.
	_, err := c.Submit(small("t", "c"))
	if !errors.Is(err, ErrQuota) {
		t.Errorf("errors.Is(ErrQuota) false across HTTP: %v", err)
	}
	if !strings.Contains(err.Error(), "429") || !strings.Contains(err.Error(), "quota") {
		t.Errorf("API error text uninformative: %v", err)
	}
	if _, err := c.Status("t/none"); !errors.Is(err, ErrUnknownJob) {
		t.Errorf("status of unknown job: %v, want ErrUnknownJob", err)
	}
	if _, err := c.Drain(); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Submit(small("t", "late")); !errors.Is(err, ErrDraining) {
		t.Errorf("submit after drain: %v, want ErrDraining", err)
	}
}

// TestHTTPErrorPaths covers the endpoints' less-travelled answers and
// pins the bytes of a non-WAL 202 body.
func TestHTTPErrorPaths(t *testing.T) {
	c, _ := startServer(t, Config{Manual: true, Shards: 2})
	cases := []struct {
		name, method, path, body string
		status                   int
		code, prefix             string // code: API error code; prefix: plain-text body
	}{
		{"malformed json", "POST", "/v1/jobs", `{"network":`, 400, "bad_request", ""},
		{"leading-zero number", "POST", "/v1/jobs", `{"network":"AlexNet","batch":012}`, 400, "bad_request", ""},
		{"empty replay log", "GET", "/v1/replay-log", "", 200, "", workload.TraceHeader},
	}
	for _, tc := range cases {
		status, body := rawRequest(t, tc.method, c.BaseURL+tc.path, tc.body)
		if status != tc.status {
			t.Errorf("%s: status %d, want %d (%s)", tc.name, status, tc.status, body)
		}
		if tc.code != "" {
			var ae apiError
			if err := json.Unmarshal(body, &ae); err != nil || ae.Code != tc.code {
				t.Errorf("%s: body %s, want code %q", tc.name, body, tc.code)
			}
		}
		if !bytes.HasPrefix(body, []byte(tc.prefix)) {
			t.Errorf("%s: body %q, want prefix %q", tc.name, body, tc.prefix)
		}
	}
	// Without a WAL the 202 is the queued status, rendered exactly as
	// json.MarshalIndent renders it.
	status, body := rawRequest(t, "POST", c.BaseURL+"/v1/jobs", `{"tenant":"<t&>","id":"j1","network":"AlexNet","batch":16}`)
	var st JobStatus
	if err := json.Unmarshal(body, &st); status != http.StatusAccepted || err != nil {
		t.Fatalf("submit: %d %s (%v)", status, body, err)
	}
	want, err := json.MarshalIndent(&st, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if want = append(want, '\n'); !bytes.Equal(body, want) {
		t.Errorf("202 body\n%q\nwant\n%q", body, want)
	}
}

// An oversized submit body is refused as a bad request, and the
// service keeps answering afterwards.
func TestSubmitBodyLimit(t *testing.T) {
	c, _ := startServer(t, Config{})
	body := `{"network":"AlexNet","batch":16,"pad":"` + strings.Repeat("x", 2<<20) + `"}`
	status, resp := rawRequest(t, "POST", c.BaseURL+"/v1/jobs", body)
	var ae apiError
	if status != http.StatusBadRequest || json.Unmarshal(resp, &ae) != nil || ae.Code != "bad_request" {
		t.Fatalf("2 MiB body: %d %s, want 400 bad_request", status, resp)
	}
	if err := c.Healthz(); err != nil {
		t.Fatalf("healthz after oversized body: %v", err)
	}
	if _, err := c.Submit(small("t", "after")); err != nil {
		t.Fatalf("submit after oversized body: %v", err)
	}
}

// rawRequest sends body (none when empty) and returns the status and
// response body.
func rawRequest(t *testing.T, method, url, body string) (int, []byte) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp.StatusCode, data
}

// The load generator drives the full HTTP stack and its report adds up.
func TestRunLoadAgainstService(t *testing.T) {
	c, s := startServer(t, Config{QueueDepth: 16})
	templates := []workload.TraceJob{
		{Network: "AlexNet", Batch: 16, Iterations: 1},
		{Network: "AlexNet", Batch: 32, Iterations: 2, Priority: 3},
		{Network: "AlexNet", BatchSchedule: workload.Schedule{16, 16, 32}, Batch: 32, Iterations: 3},
	}
	rep, err := RunLoad(LoadConfig{
		Target: c, Clients: 3, JobsPerClient: 5, Templates: templates, Drain: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 15 || rep.Failed != 0 {
		t.Fatalf("report = %+v, want 15 submitted", rep)
	}
	if rep.Drained == nil || rep.Drained.Jobs != 15 {
		t.Fatalf("drain summary = %+v, want 15 jobs", rep.Drained)
	}
	if rep.Throughput <= 0 || rep.P50 <= 0 || rep.P99 < rep.P50 {
		t.Errorf("latency stats implausible: %+v", rep)
	}
	// The drained service's log replays to the drain summary's result.
	trace, err := workload.ParseTrace(strings.NewReader(rep.Drained.ReplayLog))
	if err != nil {
		t.Fatal(err)
	}
	if len(trace) != 15 {
		t.Fatalf("replay log holds %d jobs, want 15", len(trace))
	}
	fresh, err := sched.NewScheduler(s.Cluster(), sched.Packing)
	if err != nil {
		t.Fatal(err)
	}
	replayed, err := fresh.Run(sched.JobsFromTrace(trace))
	if err != nil {
		t.Fatal(err)
	}
	if replayed.Makespan != rep.Drained.Result.Makespan || replayed.Utilization != rep.Drained.Result.Utilization {
		t.Error("replay of load-generated log differs from drain result")
	}
}

// Quota denials surface in the load report instead of failing the run.
func TestRunLoadQuota(t *testing.T) {
	c, _ := startServer(t, Config{TenantQuota: 2})
	rep, err := RunLoad(LoadConfig{
		Target: c, Clients: 2, JobsPerClient: 4,
		Templates: []workload.TraceJob{{Network: "AlexNet", Batch: 16, Iterations: 1}},
		Drain:     true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 4 || rep.QuotaDenied != 4 {
		t.Errorf("report = %+v, want 4 submitted + 4 quota-denied", rep)
	}
}
