package httpapi

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/service"
)

// jsonDecode decodes a response body and closes it.
func jsonDecode(resp *http.Response, v any) error {
	defer resp.Body.Close()
	return json.NewDecoder(resp.Body).Decode(v)
}

// phpInstance returns a pigeonhole DQDIMACS instance hard enough to keep a
// worker busy until cancelled.
func phpInstance() string {
	var b strings.Builder
	b.WriteString("p cnf 56 163\n")
	hole := func(i, j int) int { return i*7 + j + 1 } // 8 pigeons, 7 holes
	for i := 0; i < 8; i++ {
		for j := 0; j < 7; j++ {
			b.WriteString(" ")
			b.WriteString(itoa(hole(i, j)))
		}
		b.WriteString(" 0\n")
	}
	for j := 0; j < 7; j++ {
		for i := 0; i < 8; i++ {
			for k := i + 1; k < 8; k++ {
				b.WriteString(itoa(-hole(i, j)) + " " + itoa(-hole(k, j)) + " 0\n")
			}
		}
	}
	return b.String()
}

// TestReadyzAndLoadShedding: /readyz must flip to 503 when the queue is
// full while /healthz stays 200, and further submissions must be shed with
// 429 rather than 503.
func TestReadyzAndLoadShedding(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{Workers: 1, QueueCap: 1})

	var body map[string]string
	if code := getJSON(t, ts.URL+"/readyz", &body); code != http.StatusOK || body["status"] != "ready" {
		t.Fatalf("idle readyz: %d %v", code, body)
	}

	// Occupy the single worker, then the single queue slot.
	var ids []string
	for i := 0; i < 2; i++ {
		resp, err := http.Post(ts.URL+"/jobs?engine=hqs", "text/plain", strings.NewReader(phpInstance()))
		if err != nil {
			t.Fatalf("POST /jobs: %v", err)
		}
		var info service.JobInfo
		if err := jsonDecode(resp, &info); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit %d: status %d", i, resp.StatusCode)
		}
		ids = append(ids, info.ID)
	}

	// The queue may momentarily have a free slot while the worker dequeues;
	// poll until readiness reports saturation.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/readyz", &body); code == http.StatusServiceUnavailable {
			if body["status"] != "saturated" {
				t.Fatalf("readyz status = %q, want saturated", body["status"])
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never reported saturation with a full queue")
		}
		// Keep the queue full: top it up if the worker drained the slot.
		resp, err := http.Post(ts.URL+"/jobs?engine=hqs", "text/plain", strings.NewReader(phpInstance()))
		if err != nil {
			t.Fatalf("POST /jobs: %v", err)
		}
		var info service.JobInfo
		if jsonDecode(resp, &info) == nil && resp.StatusCode == http.StatusAccepted {
			ids = append(ids, info.ID)
		}
	}

	// Liveness is unaffected by saturation.
	if code := getJSON(t, ts.URL+"/healthz", &body); code != http.StatusOK {
		t.Fatalf("healthz under load: %d", code)
	}

	// A saturated queue sheds with 429 + Retry-After.
	resp, err := http.Post(ts.URL+"/jobs?engine=hqs", "text/plain", strings.NewReader(phpInstance()))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	var errBody map[string]string
	jsonDecode(resp, &errBody)
	if resp.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("submit to full queue = %d, want 429 (%v)", resp.StatusCode, errBody)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Error("429 without Retry-After header")
	}

	// Shutdown begins: readiness reports draining.
	srv.SetHealthy(false)
	if code := getJSON(t, ts.URL+"/readyz", &body); code != http.StatusServiceUnavailable || body["status"] != "draining" {
		t.Fatalf("shutdown readyz: %d %v", code, body)
	}
	srv.SetHealthy(true)

	// Let the drain in the test cleanup finish promptly.
	for _, id := range ids {
		req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+id, nil)
		if dresp, err := http.DefaultClient.Do(req); err == nil {
			dresp.Body.Close()
		}
	}
}

// TestBodySizeLimit: a request body over -max-body must be rejected with 413.
func TestBodySizeLimit(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{Workers: 1})
	srv.MaxBody = 64

	resp, err := http.Post(ts.URL+"/jobs", "text/plain", strings.NewReader(phpInstance()))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusRequestEntityTooLarge {
		t.Fatalf("oversized body = %d, want 413", resp.StatusCode)
	}

	// At the limit boundary, small instances still parse.
	srv.MaxBody = 1 << 20
	resp, err = http.Post(ts.URL+"/solve?engine=idq", "text/plain", strings.NewReader(unsatInstance))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("small body after limit reset = %d", resp.StatusCode)
	}
}

// TestSolveRequestTimeout: a blocking /solve call must be bounded by the
// per-request timeout, answer 504, and cancel the underlying job.
func TestSolveRequestTimeout(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{Workers: 1})
	srv.RequestTimeout = 50 * time.Millisecond

	resp, err := http.Post(ts.URL+"/solve?engine=hqs", "text/plain", strings.NewReader(phpInstance()))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	var errBody map[string]string
	jsonDecode(resp, &errBody)
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow solve = %d, want 504 (%v)", resp.StatusCode, errBody)
	}
	if !strings.Contains(errBody["error"], "cancelled") {
		t.Fatalf("504 body should mention the cancelled job: %v", errBody)
	}
}

// TestRecovererContainsHandlerPanics: a panic inside HTTP plumbing must
// produce a 500 JSON error on that request, not a dropped connection.
func TestRecovererContainsHandlerPanics(t *testing.T) {
	srv := New(service.NewScheduler(service.Config{Workers: 1}))
	h := srv.recoverer(http.HandlerFunc(func(http.ResponseWriter, *http.Request) {
		panic("handler bug")
	}))
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest(http.MethodGet, "/boom", nil))
	if rec.Code != http.StatusInternalServerError {
		t.Fatalf("status = %d, want 500", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "handler bug") {
		t.Fatalf("body = %q", rec.Body.String())
	}
}

// TestServerUnderInjectedFaults drives the HTTP surface while the solver
// underneath panics on a third of its SAT calls: requests must still get
// well-formed JSON answers (SAT/UNSAT/ERROR all acceptable), and the
// /stats counters must record the contained failures.
func TestServerUnderInjectedFaults(t *testing.T) {
	plan, err := faults.ParseSpec("sat.solve:panic:p=0.33", 11)
	if err != nil {
		t.Fatal(err)
	}
	_, ts := newTestServer(t, service.Config{
		Workers:   2,
		CacheSize: -1,
		Retry:     service.RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		Faults:    plan,
	})
	for i := 0; i < 20; i++ {
		resp, err := http.Post(ts.URL+"/solve?engine=idq&timeout=10s", "text/plain", strings.NewReader(unsatInstance))
		if err != nil {
			t.Fatalf("POST /solve: %v", err)
		}
		var info service.JobInfo
		if err := jsonDecode(resp, &info); err != nil {
			t.Fatalf("request %d: bad JSON: %v", i, err)
		}
		if resp.StatusCode != http.StatusOK || info.State != service.StateDone {
			t.Fatalf("request %d: status %d, info %+v", i, resp.StatusCode, info)
		}
	}
	if plan.Fires(faults.SATSolve) == 0 {
		t.Fatal("fault plan never fired — the test exercised nothing")
	}
	var st service.Stats
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Completed != 20 {
		t.Fatalf("stats.Completed = %d, want 20", st.Completed)
	}
	if st.Panics == 0 && st.Retries == 0 {
		t.Fatalf("stats show no contained faults: %+v", st)
	}
}
