package httpapi

import (
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
	"repro/internal/service"
)

// example1 is the paper's Example 1 in DQDIMACS: ∀x1∀x2 ∃y1(x1) ∃y2(x2),
// matrix (y1↔x1)∧(y2↔x2). Satisfiable, not QBF-expressible.
const example1 = `c paper example 1
p cnf 4 4
a 1 2 0
d 3 1 0
d 4 2 0
-3 1 0
3 -1 0
-4 2 0
4 -2 0
`

// unsatInstance is ∀x ∃y(∅) with y↔x: unsatisfiable.
const unsatInstance = `p cnf 2 2
a 1 0
d 2 0
-2 1 0
2 -1 0
`

func newTestServer(t *testing.T, cfg service.Config) (*Server, *httptest.Server) {
	t.Helper()
	// Registered first so its cleanup assertion runs last, after the
	// scheduler has drained: dead workers or stuck jobs show up as leaks.
	leakcheck.Check(t)
	sched := service.NewScheduler(cfg)
	srv := New(sched)
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
		defer cancel()
		if err := sched.Drain(ctx); err != nil {
			t.Errorf("drain: %v", err)
		}
	})
	return srv, ts
}

func getJSON(t *testing.T, url string, v any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatalf("GET %s: %v", url, err)
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
		t.Fatalf("GET %s: decode: %v", url, err)
	}
	return resp.StatusCode
}

// TestSolveOverHTTP is the acceptance scenario: a DQDIMACS instance
// submitted over HTTP is solved in portfolio mode.
func TestSolveOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 2})

	resp, err := http.Post(ts.URL+"/solve?engine=portfolio&timeout=30s", "text/plain", strings.NewReader(example1))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("status = %d", resp.StatusCode)
	}
	var info service.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if info.State != service.StateDone || info.Outcome == nil {
		t.Fatalf("job not done: %+v", info)
	}
	if info.Outcome.Verdict != service.VerdictSat {
		t.Fatalf("verdict = %v, want SAT", info.Outcome.Verdict)
	}
	if info.Outcome.Reason != "solved" {
		t.Fatalf("reason = %q", info.Outcome.Reason)
	}
}

func TestAsyncJobLifecycle(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1})

	resp, err := http.Post(ts.URL+"/jobs?engine=hqs", "text/plain", strings.NewReader(unsatInstance))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	var info service.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || info.ID == "" {
		t.Fatalf("submit: status %d, info %+v", resp.StatusCode, info)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		if code := getJSON(t, ts.URL+"/jobs/"+info.ID, &info); code != http.StatusOK {
			t.Fatalf("poll status = %d", code)
		}
		if info.State == service.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %+v", info)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if info.Outcome == nil || info.Outcome.Verdict != service.VerdictUnsat {
		t.Fatalf("outcome: %+v", info.Outcome)
	}

	var errBody map[string]string
	if code := getJSON(t, ts.URL+"/jobs/nope", &errBody); code != http.StatusNotFound {
		t.Fatalf("GET unknown job = %d", code)
	}
}

func TestCancelOverHTTP(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1})

	// A hard pigeonhole instance keeps the worker busy until cancelled.
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

	resp, err := http.Post(ts.URL+"/jobs?engine=hqs", "text/plain", strings.NewReader(b.String()))
	if err != nil {
		t.Fatalf("POST /jobs: %v", err)
	}
	var info service.JobInfo
	json.NewDecoder(resp.Body).Decode(&info)
	resp.Body.Close()

	req, _ := http.NewRequest(http.MethodDelete, ts.URL+"/jobs/"+info.ID, nil)
	dresp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatalf("DELETE: %v", err)
	}
	dresp.Body.Close()
	if dresp.StatusCode != http.StatusOK {
		t.Fatalf("cancel status = %d", dresp.StatusCode)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		getJSON(t, ts.URL+"/jobs/"+info.ID, &info)
		if info.State == service.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cancelled job never finished")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if info.Outcome.Verdict != service.VerdictUnknown || info.Outcome.Reason != "cancelled" {
		t.Fatalf("outcome: %+v", info.Outcome)
	}
}

func TestHealthzStatsAndErrors(t *testing.T) {
	srv, ts := newTestServer(t, service.Config{Workers: 1})

	var h map[string]string
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusOK || h["status"] != "ok" {
		t.Fatalf("healthz: %d %v", code, h)
	}
	srv.SetHealthy(false)
	if code := getJSON(t, ts.URL+"/healthz", &h); code != http.StatusServiceUnavailable {
		t.Fatalf("draining healthz: %d", code)
	}
	srv.SetHealthy(true)

	// Malformed body and bad query parameters are 400s.
	for _, url := range []string{
		ts.URL + "/solve",
		ts.URL + "/jobs?engine=bogus",
		ts.URL + "/jobs?timeout=ten-seconds",
		ts.URL + "/jobs?conflicts=many",
	} {
		resp, err := http.Post(url, "text/plain", strings.NewReader("p cnf oops\n"))
		if err != nil {
			t.Fatalf("POST %s: %v", url, err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("POST %s = %d, want 400", url, resp.StatusCode)
		}
	}

	// The retired definition-extraction engine is an unknown engine like any
	// other, and the error names the engines that remain.
	code, raw := postBody(t, ts.URL+"/solve?engine=defex", "text/plain", []byte(example1))
	if want := `unknown engine \"defex\" (want hqs, idq, expand, or portfolio)`; code != http.StatusBadRequest ||
		!strings.Contains(string(raw), want) {
		t.Fatalf("POST /solve?engine=defex = %d %s, want 400 naming %s", code, raw, want)
	}

	resp, err := http.Post(ts.URL+"/solve?engine=idq", "text/plain", strings.NewReader(example1))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	resp.Body.Close()
	var st service.Stats
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.Submitted < 1 || st.Solved < 1 {
		t.Fatalf("stats: %+v", st)
	}
}

func itoa(n int) string {
	if n < 0 {
		return "-" + itoa(-n)
	}
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}
