package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"testing"
)

// TestDecodeSubmitRequestMatchesEncodingJSON pins the encoding/json
// stream semantics submit bodies decode under: case-insensitive keys,
// unknown fields skipped, null a no-op, trailing data ignored.
func TestDecodeSubmitRequestMatchesEncodingJSON(t *testing.T) {
	cases := map[string]SubmitRequest{
		`{"tenant":"acme","id":"j1","network":"AlexNet","batch":256}`:                             {Tenant: "acme", ID: "j1", Network: "AlexNet", Batch: 256},
		`{"network":"VGG16","batch":32,"priority":-2,"iterations":10,"manager":"vdnn"}`:           {Network: "VGG16", Batch: 32, Priority: -2, Iterations: 10, Manager: "vdnn"},
		`  {  "Network" : "ResNet50" , "BATCH" : 64 }  `:                                          {Network: "ResNet50", Batch: 64},
		`{"network":"AlexNet","batch":1,"unknown":{"nested":[1,2,{"x":null}],"b":true},"f":3.75}`: {Network: "AlexNet", Batch: 1},
		`{"tenant":"\u00e9\u0442","id":"a\\\"b\tc","network":"AlexNet","schedule":"16x2,32"}`:     {Tenant: "éт", ID: "a\\\"b\tc", Network: "AlexNet", Schedule: "16x2,32"},
		`{"tenant":null,"network":"AlexNet","batch":2}`:                                           {Network: "AlexNet", Batch: 2},
		`null`: {},
		`{"network":"AlexNet","batch":1} trailing garbage`: {Network: "AlexNet", Batch: 1},
	}
	for body, want := range cases {
		var got SubmitRequest
		if err := DecodeSubmitRequest([]byte(body), &got); err != nil {
			t.Errorf("%s: %v", body, err)
		} else if got != want {
			t.Errorf("%s:\ngot  %+v\nwant %+v", body, got, want)
		}
	}
}

func TestDecodeSubmitRequestErrors(t *testing.T) {
	cases := []string{
		``,
		`[1,2]`,
		`"just a string"`,
		`{"network": "AlexNet"`,
		`{"network": }`,
		`{"batch": 1.5, "network":"x"}`,
		`{"batch": 1e3, "network":"x"}`,
		`{"batch": "12", "network":"x"}`,
		`{"batch": 012, "network":"x"}`,
		`{"network": 42}`,
		`{"network": "x" "batch": 1}`,
		`{network: "x"}`,
		`{"id":"unterminated`,
		`{"id":"bad \q escape"}`,
		`{"id":"trunc \u12"}`,
		"{\"id\":\"ctrl \x01 char\"}",
	}
	for _, body := range cases {
		var req SubmitRequest
		if err := DecodeSubmitRequest([]byte(body), &req); err == nil {
			t.Errorf("%q: decoder accepted malformed body", body)
		}
	}
}

// submitCorpus seeds both submit fuzzers: escapes, case folding,
// unknown fields, invalid UTF-8, null and integer extremes.
var submitCorpus = []string{
	`{"tenant":"acme","id":"j1","network":"AlexNet","batch":256,"priority":3,"iterations":4}`,
	`{"network":"x","schedule":"16x2,32","manager":"vdnn"}`,
	`{"network":"x","idempotency_key":"cl00-k001","IDEMPOTENCY_KEY":"shout"}`,
	`{"NeTwOrK":"x","unknown":[{"deep":null},true,1.5e3]}`,
	`{"id":"\ud83d\ude00 \u00e9 \\ \" \n","network":"x","batch":1}`,
	`{"id":"\ud800 lone","network":"x"}`,
	"{\"tenant\":\"\xff\xfe\",\"batch\":-0}",
	`null`,
	`{"batch":9223372036854775807}`,
}

// FuzzDecodeSubmitRequest: the decoder never panics, and every request
// it accepts survives a re-encode and decode unchanged.
func FuzzDecodeSubmitRequest(f *testing.F) {
	for _, s := range submitCorpus {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		var req SubmitRequest
		if DecodeSubmitRequest(data, &req) != nil {
			return
		}
		enc, err := json.Marshal(req)
		if err != nil {
			t.Fatalf("accepted request fails to re-encode: %v", err)
		}
		var again SubmitRequest
		if err := DecodeSubmitRequest(enc, &again); err != nil || again != req {
			t.Fatalf("re-encoded request %s decodes to %+v (%v), want %+v", enc, again, err, req)
		}
	})
}

// FuzzSubmitHandler drives POST /v1/jobs with arbitrary bodies: no
// body may cause a 5xx, every refusal is a typed API error whose
// status matches its code, and every acceptance is a queued status.
func FuzzSubmitHandler(f *testing.F) {
	for _, s := range submitCorpus {
		f.Add([]byte(s))
	}
	s, err := New(Config{Cluster: testCluster(), Manual: true, QueueDepth: 1 << 20})
	if err != nil {
		f.Fatal(err)
	}
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/jobs", bytes.NewReader(body)))
		if rec.Code == http.StatusAccepted {
			var st JobStatus
			if err := json.Unmarshal(rec.Body.Bytes(), &st); err != nil || st.State != StateQueued || st.Seq != -1 {
				t.Fatalf("%q: 202 body %s is not a queued status (%v)", body, rec.Body, err)
			}
			return
		}
		var ae apiError
		if err := json.Unmarshal(rec.Body.Bytes(), &ae); err != nil {
			t.Fatalf("%q: %d body %s is not an API error: %v", body, rec.Code, rec.Body, err)
		}
		sentinel := (&APIError{Code: ae.Code}).Unwrap()
		if sentinel == nil {
			t.Fatalf("%q: %d with unknown code %q", body, rec.Code, ae.Code)
		}
		if status, _ := errCode(sentinel); status != rec.Code || status >= 500 {
			t.Fatalf("%q: status %d for code %q (want %d, never 5xx)", body, rec.Code, ae.Code, status)
		}
	})
}

// BenchmarkServeIngest gates the submission path's allocations: one
// validated submit sequenced into the log and the compacting replay.
func BenchmarkServeIngest(b *testing.B) {
	b.Run("sequence", func(b *testing.B) {
		// Sequencing feeds the compacting replay, so arrivals are a
		// virtual minute apart: the cluster keeps up and the cost stays
		// flat in b.N instead of growing with a permanent backlog.
		s, err := New(Config{Cluster: testCluster(), Manual: true, QueueDepth: 1 << 20, SpacingMS: 60_000})
		if err != nil {
			b.Fatal(err)
		}
		reqs := make([]SubmitRequest, b.N)
		for i := range reqs {
			reqs[i] = SubmitRequest{Tenant: "bench", ID: fmt.Sprintf("j%d", i), Network: "AlexNet", Batch: 256}
		}
		// Warm the estimator so the dry run is out of the measurement.
		if _, err := s.Submit(SubmitRequest{Tenant: "warm", Network: "AlexNet", Batch: 256}); err != nil {
			b.Fatal(err)
		}
		s.Advance(0)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			if _, err := s.Submit(reqs[i]); err != nil {
				b.Fatal(err)
			}
			s.Advance(1)
		}
	})
}
