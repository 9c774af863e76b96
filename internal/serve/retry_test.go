package serve

// Client-side retry semantics: the capped-exponential backoff with
// full jitter, SubmitRetry's fail-fast/retry split, and the load
// generator riding out queue-full backpressure and, in idempotent
// mode, transport failures.

import (
	"errors"
	"net/http"
	"net/http/httptest"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func TestRetryPolicyBackoff(t *testing.T) {
	p := RetryPolicy{}.withDefaults()
	if p.MaxAttempts != 5 || p.BaseDelay != 50*time.Millisecond || p.MaxDelay != 2*time.Second {
		t.Fatalf("defaults = %+v", p)
	}
	for attempt := 0; attempt < 70; attempt++ { // far past shift overflow
		d := p.backoff(attempt, 0)
		if d <= 0 || d > p.MaxDelay {
			t.Fatalf("attempt %d: backoff %v outside (0, %v]", attempt, d, p.MaxDelay)
		}
	}
	for i := 0; i < 50; i++ {
		if d := p.backoff(0, 10*time.Millisecond); d <= 0 || d > 10*time.Millisecond {
			t.Fatalf("hinted backoff %v outside (0, 10ms]", d)
		}
		if d := p.backoff(0, time.Hour); d > p.MaxDelay {
			t.Fatalf("pathological hint not capped: %v", d)
		}
	}
}

// Backpressure retries until the queue frees; the report counts the
// sleeps.
func TestSubmitRetryBackpressure(t *testing.T) {
	c, s := startServer(t, Config{Manual: true, QueueDepth: 1})
	if _, err := c.Submit(small("t", "a")); err != nil {
		t.Fatal(err)
	}
	go func() {
		time.Sleep(20 * time.Millisecond)
		s.Advance(0)
	}()
	st, retries, err := c.SubmitRetry(small("t", "b"),
		RetryPolicy{MaxAttempts: 50, BaseDelay: 5 * time.Millisecond, MaxDelay: 10 * time.Millisecond})
	if err != nil {
		t.Fatalf("retry did not ride out the full queue: %v (%d retries)", err, retries)
	}
	if retries == 0 {
		t.Error("queue was full yet no retry was counted")
	}
	if st.ID != "t/b" {
		t.Errorf("submitted %q", st.ID)
	}
}

func TestSubmitRetryFailFast(t *testing.T) {
	c, _ := startServer(t, Config{Manual: true})
	_, retries, err := c.SubmitRetry(SubmitRequest{Tenant: "t", Network: "NopeNet", Batch: 4},
		RetryPolicy{BaseDelay: time.Millisecond})
	if err == nil || retries != 0 {
		t.Fatalf("validation error retried %d times (%v), want fail-fast", retries, err)
	}
	if !errors.Is(err, ErrBadRequest) {
		t.Fatalf("err %v, want ErrBadRequest through the retry wrapper", err)
	}
}

// A transport failure is ambiguous — the service may have sequenced
// the job — so blind resubmission is allowed only with an idempotency
// key.
func TestSubmitRetryTransport(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	url := ts.URL
	ts.Close() // every request now fails at the dial
	c := &Client{BaseURL: url}

	req := small("t", "a")
	if _, retries, err := c.SubmitRetry(req, RetryPolicy{MaxAttempts: 5, BaseDelay: time.Millisecond}); err == nil || retries != 0 {
		t.Fatalf("keyless transport failure: %d retries, err %v — want immediate failure", retries, err)
	}
	req.IdempotencyKey = "k1"
	if _, retries, err := c.SubmitRetry(req, RetryPolicy{MaxAttempts: 3, BaseDelay: time.Millisecond}); err == nil || retries != 2 {
		t.Fatalf("keyed transport failure: %d retries, err %v — want 2 retries then the last error", retries, err)
	}
}

// Idempotency over HTTP: the key rides the wire, the dedup answer
// carries Deduped (and Durable, with a WAL attached), and the
// checkpoint endpoint serves an artifact with the binding.
func TestHTTPIdempotentDedup(t *testing.T) {
	c, _ := startServer(t, Config{WALDir: t.TempDir(), SnapshotEvery: 1})
	req := small("t", "a")
	req.IdempotencyKey = "k1"
	st, err := c.Submit(req)
	if err != nil {
		t.Fatal(err)
	}
	if !st.Durable || st.Deduped {
		t.Fatalf("first submission status %+v, want durable and not deduped", st)
	}
	retry := req
	retry.ID = "a-retry"
	st2, err := c.Submit(retry)
	if err != nil {
		t.Fatal(err)
	}
	if !st2.Deduped || st2.ID != st.ID {
		t.Fatalf("retry status %+v, want dedup to %s", st2, st.ID)
	}
	data, err := c.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	cs, err := RestoreCheckpoint(data, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(cs.Idem) != 1 || cs.Idem[0].Key != "k1" {
		t.Fatalf("checkpoint over HTTP lost the idem binding: %+v", cs.Idem)
	}
}

// The load generator in idempotent mode rides out transport failures:
// a proxy that kills every third connection still yields a full run.
func TestRunLoadIdempotentFlaky(t *testing.T) {
	if len(DefaultTemplates()) == 0 {
		t.Fatal("no default templates")
	}
	_, svc := startServer(t, Config{QueueDepth: 64})
	var n atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if r.Method == http.MethodPost && n.Add(1)%3 == 1 {
			// Drop the connection without a response: a transport
			// failure, not an API error.
			hj, ok := w.(http.Hijacker)
			if !ok {
				t.Error("response writer cannot hijack")
				return
			}
			conn, _, err := hj.Hijack()
			if err != nil {
				t.Errorf("hijack: %v", err)
				return
			}
			conn.Close()
			return
		}
		svc.Handler().ServeHTTP(w, r)
	}))
	defer flaky.Close()

	// Fresh connection per request: keep-alives off, so the standard
	// library cannot transparently replay a killed POST itself — the
	// retry must come from the load generator.
	client := &Client{BaseURL: flaky.URL, HTTPClient: &http.Client{
		Transport: &http.Transport{DisableKeepAlives: true},
	}}
	rep, err := RunLoad(LoadConfig{
		Target: client, Clients: 2, JobsPerClient: 4,
		Templates:     DefaultTemplates()[:2],
		Idempotent:    true,
		SubmitRetries: 20,
		ThinkTime:     100 * time.Microsecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != 8 || rep.Failed != 0 {
		t.Fatalf("report %+v, want all 8 submissions to survive the flaky transport", rep)
	}
	if rep.Retries == 0 {
		t.Error("connections were killed yet no retry was counted")
	}
}

// The load generator absorbs real queue-full backpressure. The queue
// is one deep and the sequencer stays still until the first 429 has
// been written, so at least one submission must retry; after that the
// queue drains a job at a time until the load is done.
func TestRunLoadBackpressure(t *testing.T) {
	s := mustNew(t, Config{Manual: true, QueueDepth: 1})
	full := make(chan struct{})
	var once sync.Once
	h := s.Handler()
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		h.ServeHTTP(fullSignal{w, &once, full}, r)
	}))
	defer ts.Close()

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		select {
		case <-full:
		case <-done:
			return
		}
		for {
			select {
			case <-done:
				return
			default:
				s.Advance(1)
				time.Sleep(200 * time.Microsecond) // pace the sequencer
			}
		}
	}()

	const clients, jobs = 4, 5
	rep, err := RunLoad(LoadConfig{
		Target: &Client{BaseURL: ts.URL}, Clients: clients, JobsPerClient: jobs,
		Templates:     DefaultTemplates()[:2],
		SubmitRetries: 1000,
		Drain:         true,
	})
	close(done)
	wg.Wait()
	if err != nil {
		t.Fatal(err)
	}
	if rep.Submitted != clients*jobs || rep.Failed != 0 || rep.Retries == 0 {
		t.Fatalf("report %+v, want all %d submissions through the full queue, with retries", rep, clients*jobs)
	}
	if rep.Drained == nil || rep.Drained.Jobs != clients*jobs {
		t.Errorf("drain summary %+v, want %d jobs", rep.Drained, clients*jobs)
	}
}

// fullSignal closes its channel when the first 429 is written through
// it.
type fullSignal struct {
	http.ResponseWriter
	once *sync.Once
	full chan struct{}
}

func (w fullSignal) WriteHeader(code int) {
	if code == http.StatusTooManyRequests {
		w.once.Do(func() { close(w.full) })
	}
	w.ResponseWriter.WriteHeader(code)
}
