package serve

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand/v2"
	"net/http"
	"strconv"
	"time"

	"repro/internal/sched"
)

// The HTTP/JSON surface of a Service. Every endpoint is stateless over
// the service's own state, so the handlers are safe under arbitrary
// concurrency.
//
//	POST /v1/jobs        submit a job (SubmitRequest body) -> 202 JobStatus
//	GET  /v1/jobs        list all jobs -> [JobStatus]
//	GET  /v1/jobs/{id}   one job ("tenant/name") -> JobStatus
//	GET  /v1/metrics     cluster snapshot; ?wait_jobs=N&wait_ms=M
//	                     long-polls until N jobs are sequenced
//	POST /v1/drain       stop admission, flush the queue -> DrainSummary
//	GET  /v1/replay-log  the deterministic request log (text/plain)
//	GET  /v1/healthz     liveness
//
// Submission errors map to status codes: bad request 400, duplicate id
// 409, queue full or quota exhausted 429, draining 503.

// apiError is the JSON error body.
type apiError struct {
	Error string `json:"error"`
	Code  string `json:"code"`
}

// DrainSummary is the drain response: the final schedule of the whole
// request log plus the log itself.
type DrainSummary struct {
	Jobs      int           `json:"jobs"`
	Rejected  int           `json:"rejected"`
	Result    *sched.Result `json:"result"`
	ReplayLog string        `json:"replay_log"`
}

// errCode classifies a submission error for transport.
func errCode(err error) (int, string) {
	switch {
	case errors.Is(err, ErrBadRequest):
		return http.StatusBadRequest, "bad_request"
	case errors.Is(err, ErrDuplicateID):
		return http.StatusConflict, "duplicate_id"
	case errors.Is(err, ErrQueueFull):
		return http.StatusTooManyRequests, "queue_full"
	case errors.Is(err, ErrQuota):
		return http.StatusTooManyRequests, "quota"
	case errors.Is(err, ErrDraining):
		return http.StatusServiceUnavailable, "draining"
	case errors.Is(err, ErrUnknownJob):
		return http.StatusNotFound, "unknown_job"
	default:
		return http.StatusInternalServerError, "internal"
	}
}

// maxSubmitBody bounds a submit request body; SubmitRequest is a small
// flat object, so anything near this size is malformed or hostile.
const maxSubmitBody = 1 << 20

// DecodeSubmitRequest parses one JSON-encoded SubmitRequest with
// encoding/json's stream semantics: unknown fields are skipped, keys
// match case-insensitively, a null is a no-op, and data after the
// first value is ignored.
func DecodeSubmitRequest(data []byte, req *SubmitRequest) error {
	return json.NewDecoder(bytes.NewReader(data)).Decode(req)
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	_ = enc.Encode(v)
}

func writeErr(w http.ResponseWriter, err error) {
	status, code := errCode(err)
	// Backpressure errors carry a retry hint for well-behaved clients.
	var re *RetryableError
	if errors.As(err, &re) && re.RetryAfter > 0 {
		secs := int64((re.RetryAfter + time.Second - 1) / time.Second)
		w.Header().Set("Retry-After", strconv.FormatInt(secs, 10))
	}
	writeJSON(w, status, apiError{Error: err.Error(), Code: code})
}

// Handler returns the service's HTTP API.
func (s *Service) Handler() http.Handler {
	mux := http.NewServeMux()

	mux.HandleFunc("GET /v1/healthz", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{
			"ok": true, "policy": s.PolicyName(), "devices": s.Cluster().Devices,
		})
	})

	mux.HandleFunc("POST /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		body, err := io.ReadAll(http.MaxBytesReader(w, r.Body, maxSubmitBody))
		if err == nil {
			err = DecodeSubmitRequest(body, &req)
		}
		if err != nil {
			writeErr(w, fmt.Errorf("%w: body: %v", ErrBadRequest, err))
			return
		}
		st, err := s.Submit(req)
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusAccepted, st)
	})

	mux.HandleFunc("GET /v1/jobs", func(w http.ResponseWriter, r *http.Request) {
		jobs, err := s.Jobs()
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, jobs)
	})

	mux.HandleFunc("GET /v1/jobs/{id...}", func(w http.ResponseWriter, r *http.Request) {
		st, err := s.Status(r.PathValue("id"))
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, st)
	})

	mux.HandleFunc("GET /v1/metrics", func(w http.ResponseWriter, r *http.Request) {
		if n, _ := strconv.Atoi(r.URL.Query().Get("wait_jobs")); n > 0 {
			waitMS, _ := strconv.Atoi(r.URL.Query().Get("wait_ms"))
			if waitMS <= 0 {
				waitMS = 1000
			}
			s.WaitSequenced(n, time.Duration(waitMS)*time.Millisecond)
		}
		m, err := s.Metrics()
		if err != nil {
			writeErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, m)
	})

	mux.HandleFunc("POST /v1/drain", func(w http.ResponseWriter, r *http.Request) {
		res, err := s.Drain()
		if err != nil {
			writeErr(w, err)
			return
		}
		sum := DrainSummary{Jobs: len(res.Jobs), Result: res, ReplayLog: s.ReplayLog()}
		for _, j := range res.Jobs {
			if j.Rejected {
				sum.Rejected++
			}
		}
		writeJSON(w, http.StatusOK, sum)
	})

	mux.HandleFunc("GET /v1/replay-log", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		_, _ = io.WriteString(w, s.ReplayLog())
	})

	mux.HandleFunc("GET /v1/checkpoint", func(w http.ResponseWriter, r *http.Request) {
		data, err := s.Checkpoint()
		if err != nil {
			writeErr(w, err)
			return
		}
		w.Header().Set("Content-Type", "application/octet-stream")
		_, _ = w.Write(data)
	})

	return mux
}

// Client is a thin typed client for the HTTP API, used by the load
// generator, cmd/snload, and the CI smoke test.
type Client struct {
	// BaseURL is the service root, e.g. "http://127.0.0.1:8080".
	BaseURL string
	// HTTPClient defaults to http.DefaultClient.
	HTTPClient *http.Client
}

// APIError is a non-2xx response decoded from the error body.
type APIError struct {
	Status  int
	Code    string
	Message string
	// RetryAfter is the server's backpressure hint (from the
	// Retry-After header), zero when absent.
	RetryAfter time.Duration
}

func (e *APIError) Error() string {
	return fmt.Sprintf("serve: api %d (%s): %s", e.Status, e.Code, e.Message)
}

// Err maps the wire code back to the matching sentinel error, so
// errors.Is works across the HTTP boundary.
func (e *APIError) Unwrap() error {
	switch e.Code {
	case "bad_request":
		return ErrBadRequest
	case "duplicate_id":
		return ErrDuplicateID
	case "queue_full":
		return ErrQueueFull
	case "quota":
		return ErrQuota
	case "draining":
		return ErrDraining
	case "unknown_job":
		return ErrUnknownJob
	}
	return nil
}

func (c *Client) httpClient() *http.Client {
	if c.HTTPClient != nil {
		return c.HTTPClient
	}
	return http.DefaultClient
}

// do performs one request and decodes the JSON response into out.
func (c *Client) do(method, path string, body, out any) error {
	var rd io.Reader
	if body != nil {
		b, err := json.Marshal(body)
		if err != nil {
			return err
		}
		rd = bytes.NewReader(b)
	}
	req, err := http.NewRequest(method, c.BaseURL+path, rd)
	if err != nil {
		return err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	resp, err := c.httpClient().Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return err
	}
	if resp.StatusCode >= 300 {
		var retry time.Duration
		if secs, err := strconv.Atoi(resp.Header.Get("Retry-After")); err == nil && secs > 0 {
			retry = time.Duration(secs) * time.Second
		}
		var ae apiError
		if json.Unmarshal(data, &ae) == nil && ae.Code != "" {
			return &APIError{Status: resp.StatusCode, Code: ae.Code, Message: ae.Error, RetryAfter: retry}
		}
		return &APIError{Status: resp.StatusCode, Code: "http", Message: string(data), RetryAfter: retry}
	}
	if out == nil {
		return nil
	}
	return json.Unmarshal(data, out)
}

// Submit submits one job.
func (c *Client) Submit(req SubmitRequest) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(http.MethodPost, "/v1/jobs", req, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// RetryPolicy shapes SubmitRetry's backoff: capped exponential with
// full jitter, honoring the server's Retry-After hint, bounded by an
// attempt cap.
type RetryPolicy struct {
	// MaxAttempts is the total number of submit attempts (default 5).
	MaxAttempts int
	// BaseDelay seeds the exponential backoff (default 50ms); attempt n
	// backs off up to BaseDelay·2ⁿ.
	BaseDelay time.Duration
	// MaxDelay caps one backoff step and the honored Retry-After hint
	// (default 2s), so a pathological hint cannot stall the client.
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 5
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 50 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 2 * time.Second
	}
	return p
}

// backoff returns the jittered sleep before retry attempt+1: full
// jitter over the capped exponential step, where a Retry-After hint
// (capped too) replaces the step.
func (p RetryPolicy) backoff(attempt int, hint time.Duration) time.Duration {
	d := p.BaseDelay << attempt
	if d <= 0 || d > p.MaxDelay {
		d = p.MaxDelay
	}
	if hint > 0 {
		d = hint
		if d > p.MaxDelay {
			d = p.MaxDelay
		}
	}
	// Full jitter: spread retries over (0, d] so synchronized clients
	// do not re-arrive in lockstep.
	return time.Duration(rand.Int64N(int64(d))) + 1
}

// SubmitRetry submits one job with retries under pol. Queue-full
// backpressure always retries; transport failures — where the client
// cannot know whether the service sequenced the job — retry only when
// the request carries an IdempotencyKey, because only then is a
// replayed submission safe.
// Validation, quota, duplicate-id and draining errors fail fast. It
// returns the status, how many retries were spent, and the last error
// when attempts ran out.
func (c *Client) SubmitRetry(req SubmitRequest, pol RetryPolicy) (*JobStatus, int, error) {
	pol = pol.withDefaults()
	retries := 0
	for attempt := 0; ; attempt++ {
		st, err := c.Submit(req)
		if err == nil {
			return st, retries, nil
		}
		var hint time.Duration
		var ae *APIError
		switch {
		case errors.As(err, &ae):
			if !errors.Is(err, ErrQueueFull) {
				return nil, retries, err
			}
			hint = ae.RetryAfter
		case req.IdempotencyKey == "":
			// Ambiguous transport failure and no key: a blind resubmit
			// could double-sequence.
			return nil, retries, err
		}
		if attempt+1 >= pol.MaxAttempts {
			return nil, retries, err
		}
		time.Sleep(pol.backoff(attempt, hint))
		retries++
	}
}

// Status fetches one job's status by full id ("tenant/name").
func (c *Client) Status(id string) (*JobStatus, error) {
	var st JobStatus
	if err := c.do(http.MethodGet, "/v1/jobs/"+id, nil, &st); err != nil {
		return nil, err
	}
	return &st, nil
}

// Jobs lists every job.
func (c *Client) Jobs() ([]JobStatus, error) {
	var out []JobStatus
	if err := c.do(http.MethodGet, "/v1/jobs", nil, &out); err != nil {
		return nil, err
	}
	return out, nil
}

// Metrics fetches the cluster snapshot.
func (c *Client) Metrics() (*Metrics, error) {
	var m Metrics
	if err := c.do(http.MethodGet, "/v1/metrics", nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// MetricsWait long-polls until n jobs are sequenced (or the service
// side waits out), then returns the snapshot.
func (c *Client) MetricsWait(n int, wait time.Duration) (*Metrics, error) {
	var m Metrics
	path := fmt.Sprintf("/v1/metrics?wait_jobs=%d&wait_ms=%d", n, wait.Milliseconds())
	if err := c.do(http.MethodGet, path, nil, &m); err != nil {
		return nil, err
	}
	return &m, nil
}

// Drain drains the service and returns the final summary.
func (c *Client) Drain() (*DrainSummary, error) {
	var d DrainSummary
	if err := c.do(http.MethodPost, "/v1/drain", nil, &d); err != nil {
		return nil, err
	}
	return &d, nil
}

// ReplayLog fetches the deterministic request log.
func (c *Client) ReplayLog() (string, error) {
	resp, err := c.httpClient().Get(c.BaseURL + "/v1/replay-log")
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("serve: replay-log: http %d", resp.StatusCode)
	}
	return string(data), nil
}

// Checkpoint fetches the service's compaction checkpoint.
func (c *Client) Checkpoint() ([]byte, error) {
	resp, err := c.httpClient().Get(c.BaseURL + "/v1/checkpoint")
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		var ae apiError
		if json.Unmarshal(data, &ae) == nil && ae.Code != "" {
			return nil, &APIError{Status: resp.StatusCode, Code: ae.Code, Message: ae.Error}
		}
		return nil, fmt.Errorf("serve: checkpoint: http %d", resp.StatusCode)
	}
	return data, nil
}

// Healthz reports whether the service answers its liveness probe.
func (c *Client) Healthz() error {
	return c.do(http.MethodGet, "/v1/healthz", nil, nil)
}
