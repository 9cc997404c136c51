package httpapi

import (
	"encoding/json"
	"io"
	"net/http"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/problem"
	"repro/internal/service"
)

// TestSolveCertAttachment covers the ?cert=1 extension: a SAT /solve
// response carries the cert.Encode wire blob, the blob decodes, and the
// decoded certificate passes the independent checker against the original
// formula — exactly the chain the cluster coordinator runs per cube.
func TestSolveCertAttachment(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1, CacheSize: -1})

	resp, err := http.Post(ts.URL+"/solve?engine=idq&timeout=30s&cert=1", "text/plain", strings.NewReader(example1))
	if err != nil {
		t.Fatalf("solve: %v", err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("solve status: %d", resp.StatusCode)
	}
	var jr struct {
		service.JobInfo
		CertSkolem string `json:"cert_skolem"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&jr); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if jr.Outcome == nil || jr.Outcome.Verdict != service.VerdictSat {
		t.Fatalf("outcome: %+v", jr.Outcome)
	}
	if jr.CertSkolem == "" {
		t.Fatal("SAT response with cert=1 carried no cert_skolem")
	}
	c, err := cert.Decode([]byte(jr.CertSkolem))
	if err != nil {
		t.Fatalf("decoding attached certificate: %v", err)
	}
	p, err := problem.ParseBytes([]byte(example1), "")
	if err != nil {
		t.Fatalf("parsing example1: %v", err)
	}
	if err := cert.Check(p.Formula, c); err != nil {
		t.Fatalf("attached certificate rejected: %v", err)
	}

	// Without cert=1 the snapshot stays the plain JobInfo shape.
	resp2, err := http.Post(ts.URL+"/solve?engine=idq&timeout=30s", "text/plain", strings.NewReader(example1))
	if err != nil {
		t.Fatalf("solve without cert: %v", err)
	}
	defer resp2.Body.Close()
	raw, _ := io.ReadAll(resp2.Body)
	if strings.Contains(string(raw), "cert_skolem") {
		t.Fatalf("cert_skolem leaked without cert=1: %s", raw)
	}
}

// TestIdempotencyHeaderDedupes covers the X-Idempotency-Key extension over
// the wire: a resent /jobs submit with the same key answers with the same
// job ID and counts one submission plus one idem hit.
func TestIdempotencyHeaderDedupes(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1, CacheSize: -1})

	post := func() service.JobInfo {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/jobs?engine=hqs&timeout=30s", strings.NewReader(example1))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(IdempotencyHeader, "deadbeef:attempt0")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("submit status: %d", resp.StatusCode)
		}
		var info service.JobInfo
		if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
			t.Fatalf("decode: %v", err)
		}
		return info
	}
	first := post()
	second := post()
	if first.ID != second.ID {
		t.Fatalf("resent submit got a new job: %s vs %s", first.ID, second.ID)
	}

	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatalf("stats: %v", err)
		}
		var st service.Stats
		err = json.NewDecoder(resp.Body).Decode(&st)
		resp.Body.Close()
		if err != nil {
			t.Fatalf("decode stats: %v", err)
		}
		if st.Completed == 1 {
			if st.Submitted != 1 || st.IdemHits != 1 {
				t.Fatalf("stats after dedupe: submitted=%d idem_hits=%d", st.Submitted, st.IdemHits)
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never completed: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestIdempotencyKeyConflict pins that a key answers only for its own
// formula: reusing a tracked key for another instance is a 409, and the
// job already behind the key is left exactly as it was.
func TestIdempotencyKeyConflict(t *testing.T) {
	_, ts := newTestServer(t, service.Config{Workers: 1, CacheSize: -1})

	post := func(body string) (int, []byte) {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, ts.URL+"/solve?engine=hqs&timeout=30s", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(IdempotencyHeader, "k")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("solve: %v", err)
		}
		defer resp.Body.Close()
		raw, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatalf("read: %v", err)
		}
		return resp.StatusCode, raw
	}
	code, raw := post(example1)
	var first service.JobInfo
	if err := json.Unmarshal(raw, &first); err != nil || code != http.StatusOK {
		t.Fatalf("first solve: status %d, %s (%v)", code, raw, err)
	}
	if first.Outcome == nil || first.Outcome.Verdict != service.VerdictSat {
		t.Fatalf("first solve: %s", raw)
	}
	if code, raw := post(unsatInstance); code != http.StatusConflict {
		t.Fatalf("same key, other formula: status %d, %s; want 409", code, raw)
	}
	var after service.JobInfo
	if code := getJSON(t, ts.URL+"/jobs/"+first.ID, &after); code != http.StatusOK {
		t.Fatalf("snapshot status %d", code)
	}
	if !reflect.DeepEqual(after, first) {
		t.Fatalf("first job changed:\n got %+v\nwant %+v", after, first)
	}
}
