package httpapi

import (
	"bytes"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/faults"
	"repro/internal/pec"
	"repro/internal/problem"
	"repro/internal/service"
)

// pqeQuery is ∃x3[(¬x3) ∧ (x3 ∨ y1)]: the exact answer is the unit clause
// (y1).
const pqeQuery = `p pqe 3 1 1
e 3 0
-3 0
3 1 0
`

// adderInstance builds the acceptance instance — a 1-bit ripple-carry
// specification against a lookahead implementation with one gate cut out as
// a black box — and returns the same problem as BENCH and DQDIMACS bytes.
func adderInstance(t *testing.T) (bench, dqdimacs []byte) {
	t.Helper()
	spec := circuit.RippleCarryAdder(1)
	impl := circuit.CarryLookaheadAdder(1)
	cut, _, err := pec.CutBoxes(impl, [][]int{{impl.Signal("p0")}})
	if err != nil {
		t.Fatalf("CutBoxes: %v", err)
	}
	m, err := circuit.Miter(spec, cut)
	if err != nil {
		t.Fatalf("Miter: %v", err)
	}
	var b bytes.Buffer
	if err := m.WriteBench(&b); err != nil {
		t.Fatalf("WriteBench: %v", err)
	}
	p, err := problem.ParseBytes(b.Bytes(), problem.FormatBENCH)
	if err != nil {
		t.Fatalf("parse bench: %v", err)
	}
	var d bytes.Buffer
	if err := p.Formula.WriteDQDIMACS(&d); err != nil {
		t.Fatalf("write dqdimacs: %v", err)
	}
	return b.Bytes(), d.Bytes()
}

func postBody(t *testing.T, url, contentType string, body []byte) (int, []byte) {
	t.Helper()
	resp, err := http.Post(url, contentType, bytes.NewReader(body))
	if err != nil {
		t.Fatalf("POST %s: %v", url, err)
	}
	defer resp.Body.Close()
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(resp.Body); err != nil {
		t.Fatalf("POST %s: read body: %v", url, err)
	}
	return resp.StatusCode, buf.Bytes()
}

// TestDualFormatSharedCacheEntry is the PR's acceptance scenario: the same
// adder instance POSTed as BENCH and as DQDIMACS returns identical verdicts
// and shares a single cache entry, because the canonical hash is computed on
// the normalized problem.
func TestDualFormatSharedCacheEntry(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1, CacheSize: 16})
	bench, dqdimacs := adderInstance(t)

	solve := func(body []byte, ct string) service.JobInfo {
		code, raw := postBody(t, ts.URL+"/solve?engine=hqs&timeout=60s", ct, body)
		if code != http.StatusOK {
			t.Fatalf("POST /solve (%s): status %d: %s", ct, code, raw)
		}
		var info service.JobInfo
		if err := json.Unmarshal(raw, &info); err != nil {
			t.Fatalf("decode: %v", err)
		}
		if info.Outcome == nil {
			t.Fatalf("job not finished: %+v", info)
		}
		return info
	}

	first := solve(bench, "application/x-bench")
	if first.Format != string(problem.FormatBENCH) {
		t.Fatalf("first job format = %q, want bench", first.Format)
	}
	if first.Kind != problem.KindQBF.String() {
		t.Fatalf("first job kind = %q, want qbf (circuit encodings are linear)", first.Kind)
	}
	second := solve(dqdimacs, "application/x-dqdimacs")
	if first.Outcome.Verdict != second.Outcome.Verdict {
		t.Fatalf("verdicts differ across formats: bench %v, dqdimacs %v",
			first.Outcome.Verdict, second.Outcome.Verdict)
	}
	var st service.Stats
	if code := getJSON(t, ts.URL+"/stats", &st); code != http.StatusOK {
		t.Fatalf("stats: %d", code)
	}
	if st.CacheHits != 1 {
		t.Fatalf("cache_hits = %d, want 1 (second format must reuse the first entry)", st.CacheHits)
	}
	if st.CacheLen != 1 {
		t.Fatalf("cache_len = %d, want a single shared entry", st.CacheLen)
	}
}

// TestSolveAcceptsAllFormats sniffs every supported formula format with no
// Content-Type hint.
func TestSolveAcceptsAllFormats(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1})
	bodies := map[string]string{
		"dqdimacs": example1,
		"qdimacs":  "p cnf 2 1\na 1 0\ne 2 0\n-1 2 0\n",
		"aiger":    "aag 3 2 0 1 1\n2\n4\n7\n6 2 5\ni0 a_x\n",
		"bench":    "INPUT(a)\nOUTPUT(o)\no = XNOR(a, f)\n",
	}
	for name, body := range bodies {
		code, raw := postBody(t, ts.URL+"/solve?engine=hqs&timeout=60s", "text/plain", []byte(body))
		if code != http.StatusOK {
			t.Fatalf("%s: status %d: %s", name, code, raw)
		}
		var info service.JobInfo
		if err := json.Unmarshal(raw, &info); err != nil {
			t.Fatalf("%s: decode: %v", name, err)
		}
		if info.Format != name {
			t.Fatalf("format = %q, want %q", info.Format, name)
		}
		if info.Outcome == nil || info.Outcome.Verdict != service.VerdictSat {
			t.Fatalf("%s: outcome %+v, want SAT", name, info.Outcome)
		}
	}
}

func TestPQEEndpoint(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1})
	code, raw := postBody(t, ts.URL+"/pqe?timeout=30s", "application/x-pqe", []byte(pqeQuery))
	if code != http.StatusOK {
		t.Fatalf("POST /pqe: status %d: %s", code, raw)
	}
	var res struct {
		Status  string  `json:"status"`
		Hash    string  `json:"hash"`
		Clauses [][]int `json:"clauses"`
		Rounds  int     `json:"rounds"`
	}
	if err := json.Unmarshal(raw, &res); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if res.Status != "ok" || res.Hash == "" || res.Rounds == 0 {
		t.Fatalf("response %+v", res)
	}
	if len(res.Clauses) != 1 || len(res.Clauses[0]) != 1 || res.Clauses[0][0] != 1 {
		t.Fatalf("Q = %v, want [[1]] (the unit clause y1)", res.Clauses)
	}
}

// TestPQERouting: PQE queries on /solve and formula problems on /pqe are
// both clean 400s.
func TestPQERouting(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1})
	if code, raw := postBody(t, ts.URL+"/solve?engine=hqs", "text/plain", []byte(pqeQuery)); code != http.StatusBadRequest {
		t.Fatalf("PQE on /solve: status %d: %s", code, raw)
	}
	if code, raw := postBody(t, ts.URL+"/jobs", "text/plain", []byte(pqeQuery)); code != http.StatusBadRequest {
		t.Fatalf("PQE on /jobs: status %d: %s", code, raw)
	}
	if code, raw := postBody(t, ts.URL+"/pqe", "text/plain", []byte(example1)); code != http.StatusBadRequest {
		t.Fatalf("formula on /pqe: status %d: %s", code, raw)
	}
}

// TestIngestionRejectsMalformed: malformed bodies in every format are 400s,
// including the BENCH arity violations that used to panic the parser.
func TestIngestionRejectsMalformed(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1})
	cases := map[string]struct{ ct, body string }{
		"dqdimacs":        {"text/plain", "p cnf oops\n"},
		"aiger truncated": {"text/plain", "aag 2 2 0 0 0\n2\n"},
		"aiger latches":   {"text/plain", "aag 2 1 1 0 0\n2\n4 2\n"},
		"bench arity":     {"text/plain", "x = NOT(a, b)\n"},
		"bench xor arity": {"text/plain", "OUTPUT(x)\nx = XOR(a, b, c)\n"},
		"bench cycle":     {"text/plain", "x = NOT(y)\ny = NOT(x)\n"},
		"empty":           {"text/plain", ""},
		"hinted mismatch": {"application/x-bench", example1},
	}
	for name, tc := range cases {
		code, raw := postBody(t, ts.URL+"/solve?engine=hqs", tc.ct, []byte(tc.body))
		if code != http.StatusBadRequest {
			t.Fatalf("%s: status %d, want 400: %s", name, code, raw)
		}
	}
	// The daemon is still healthy afterwards.
	var v map[string]any
	if code := getJSON(t, ts.URL+"/healthz", &v); code != http.StatusOK {
		t.Fatalf("healthz after malformed bodies: %d", code)
	}
}

// TestIngestionFaultDrill arms the problem.parse fault point of the
// server's scheduler: an injected error surfaces as a 400, an injected panic
// as a contained 500 — the daemon keeps serving either way.
func TestIngestionFaultDrill(t *testing.T) {
	plan, err := faults.ParseSpec("problem.parse:error:times=1;problem.parse:panic:times=1", 1)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	_, ts := newTestServer(t, service.Config{Workers: 1, Faults: plan})

	if code, raw := postBody(t, ts.URL+"/solve?engine=hqs", "text/plain", []byte(example1)); code != http.StatusBadRequest {
		t.Fatalf("injected parse error: status %d, want 400: %s", code, raw)
	}
	if code, raw := postBody(t, ts.URL+"/solve?engine=hqs", "text/plain", []byte(example1)); code != http.StatusInternalServerError {
		t.Fatalf("injected parse panic: status %d, want 500: %s", code, raw)
	}

	// Both rules are spent, so this request is clean: the worker pool and
	// listener survived.
	code, raw := postBody(t, ts.URL+"/solve?engine=hqs&timeout=60s", "text/plain", []byte(example1))
	if code != http.StatusOK {
		t.Fatalf("post-drill solve: status %d: %s", code, raw)
	}
}

// TestPQEFaultDrill arms the pqe.solve point: spurious unknowns degrade to
// {"status":"unknown"}, hard errors to 500s, panics are contained by the
// service layer, and the scheduler's PQE meters count every query and
// failure.
func TestPQEFaultDrill(t *testing.T) {
	// One rule per query, in order: each fires once and is spent.
	plan, err := faults.ParseSpec("pqe.solve:unknown:times=1;pqe.solve:error:times=1;pqe.solve:panic:times=1", 1)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	srv, ts := newTestServer(t, service.Config{Workers: 1, Faults: plan})

	code, raw := postBody(t, ts.URL+"/pqe", "application/x-pqe", []byte(pqeQuery))
	if code != http.StatusOK || !strings.Contains(string(raw), `"unknown"`) {
		t.Fatalf("spurious unknown: status %d: %s", code, raw)
	}

	if code, raw = postBody(t, ts.URL+"/pqe", "application/x-pqe", []byte(pqeQuery)); code != http.StatusInternalServerError {
		t.Fatalf("injected error: status %d, want 500: %s", code, raw)
	}

	if code, raw = postBody(t, ts.URL+"/pqe", "application/x-pqe", []byte(pqeQuery)); code != http.StatusInternalServerError {
		t.Fatalf("injected panic: status %d, want contained 500: %s", code, raw)
	}

	// Every rule is spent: the fourth query runs clean.
	if code, raw = postBody(t, ts.URL+"/pqe", "application/x-pqe", []byte(pqeQuery)); code != http.StatusOK {
		t.Fatalf("post-drill query: status %d: %s", code, raw)
	}
	if st := srv.Scheduler().Stats(); st.PQEQueries != 4 || st.PQEFailures != 3 {
		t.Fatalf("pqe meters: %d queries, %d failures; want 4 and 3", st.PQEQueries, st.PQEFailures)
	}
}

// TestPQETimeoutClamp is the regression test for /pqe bypassing the
// scheduler's timeout policy: with MaxTimeout 20ms, a query that sets no
// timeout and is held up 100ms by an injected latency must come back
// unknown, exactly like a /solve job under the same clamp.
func TestPQETimeoutClamp(t *testing.T) {
	plan, err := faults.ParseSpec("pqe.solve:latency:every=1,latency=100ms", 1)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	_, ts := newTestServer(t, service.Config{Workers: 1, MaxTimeout: 20 * time.Millisecond, Faults: plan})

	code, raw := postBody(t, ts.URL+"/pqe", "application/x-pqe", []byte(pqeQuery))
	if code != http.StatusOK || !strings.Contains(string(raw), `"unknown"`) {
		t.Fatalf("clamped query: status %d, want 200 with status unknown: %s", code, raw)
	}
}
