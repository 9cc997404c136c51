package service

import (
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cert"
	"repro/internal/dqbf"
	"repro/internal/problem"
	"repro/internal/store"
)

// TestCertifyHQSValidCertificate: with certification on, an HQS SAT verdict
// only reaches the caller after the extracted Skolem certificate passes the
// independent checker.
func TestCertifyHQSValidCertificate(t *testing.T) {
	out := (&Runner{Certify: true}).Run(nil, request(paperExample1(), EngineHQS, Limits{}))
	if out.Verdict != VerdictSat {
		t.Fatalf("verdict = %v, want SAT with a validated certificate (error: %s)", out.Verdict, out.Error)
	}
	if out.Cert == nil {
		t.Fatal("certified SAT outcome carries no certificate")
	}
}

// TestCertifyHQSRejectionIsError: a fault injected at the service.certify
// point must turn the certified HQS SAT into ERROR — the same policy the
// iDQ table certificates already get.
func TestCertifyHQSRejectionIsError(t *testing.T) {
	plan := withFaults(t, "service.certify:error", 1)
	out := (&Runner{Certify: true}).Run(budget.New(budget.Limits{Faults: plan}), request(paperExample1(), EngineHQS, Limits{}))
	if out.Verdict != VerdictError {
		t.Fatalf("verdict = %v, want ERROR on certificate rejection", out.Verdict)
	}
	if !strings.Contains(out.Error, "certificate") {
		t.Fatalf("error text = %q, want certificate rejection", out.Error)
	}
}

// TestCertifyOffSkipsCheck: without the flag the HQS path must not consult
// the certificate checker at all — an armed certify fault must not fire.
func TestCertifyOffSkipsCheck(t *testing.T) {
	plan := withFaults(t, "service.certify:error", 1)
	out := (&Runner{}).Run(budget.New(budget.Limits{Faults: plan}), request(paperExample1(), EngineHQS, Limits{}))
	if out.Verdict != VerdictSat {
		t.Fatalf("verdict = %v, want SAT (uncertified HQS must not hit the certify point)", out.Verdict)
	}
}

// TestCertifyPolicyIsPerScheduler: a certifying and a plain scheduler solve
// the same instances concurrently in one process. Only the certifying
// scheduler's SAT outcomes carry a certificate, and only it refuses a bare
// SAT store entry; the engine meters of each count only its own jobs.
func TestCertifyPolicyIsPerScheduler(t *testing.T) {
	bare := paperExample1()
	// storeWithBareSAT opens a store holding one certificate-less SAT entry
	// for bare, as an engine without certificate support would write it.
	storeWithBareSAT := func() *store.Store {
		dir := t.TempDir()
		st0 := quietStore(t, dir)
		if err := st0.Put(&store.Entry{
			Key: problem.CanonicalFormulaHash(bare), Verdict: store.VerdictSat, Engine: "hqs",
			CreatedUnix: time.Now().Unix(),
		}); err != nil {
			t.Fatal(err)
		}
		st0.Close()
		st := quietStore(t, dir)
		t.Cleanup(func() { st.Close() })
		return st
	}
	certifying := NewScheduler(Config{Workers: 2, CacheSize: -1, Store: storeWithBareSAT(), Certify: true})
	defer drainNow(t, certifying)
	plain := NewScheduler(Config{Workers: 2, CacheSize: -1, Store: storeWithBareSAT()})
	defer drainNow(t, plain)

	// SAT instances that preprocessing alone does not decide, plus the one
	// with the bare store entry.
	formulas := []*dqbf.Formula{bare, xorLinkedDQBF()}
	rng := rand.New(rand.NewSource(3))
	for len(formulas) < 8 {
		f := dqbf.RandomFormula(rng, 2, 3, 5)
		if run(f, EngineIDQ, budget.WithTimeout(30*time.Second)).Verdict == VerdictSat {
			formulas = append(formulas, f)
		}
	}

	type result struct {
		certifying bool
		i          int
		out        Outcome
	}
	results := make(chan result, 2*len(formulas))
	var wg sync.WaitGroup
	for _, s := range []*Scheduler{certifying, plain} {
		for i, f := range formulas {
			wg.Add(1)
			go func(s *Scheduler, i int, f *dqbf.Formula) {
				defer wg.Done()
				j, err := s.Submit(request(f, EngineHQS, Limits{Timeout: 30 * time.Second}))
				if err != nil {
					t.Errorf("submit %d: %v", i, err)
					return
				}
				results <- result{s == certifying, i, waitDone(t, j)}
			}(s, i, f)
		}
	}
	wg.Wait()
	close(results)

	for r := range results {
		out, f := r.out, formulas[r.i]
		if out.Verdict != VerdictSat {
			t.Fatalf("instance %d (certifying=%v): %+v, want SAT", r.i, r.certifying, out)
		}
		switch {
		case r.certifying && out.FromStore:
			t.Fatalf("instance %d: certifying scheduler served a store entry: %+v", r.i, out)
		case r.certifying && out.Cert == nil:
			t.Fatalf("instance %d: certifying scheduler's SAT has no certificate", r.i)
		case r.certifying:
			if err := cert.Check(f, out.Cert); err != nil {
				t.Fatalf("instance %d: certificate rejected: %v", r.i, err)
			}
		case out.Cert != nil:
			t.Fatalf("instance %d: plain scheduler's SAT carries a certificate", r.i)
		case r.i == 0 && !out.FromStore:
			t.Fatalf("plain scheduler re-solved the bare SAT entry instead of serving it: %+v", out)
		}
	}
	// The plain scheduler answered the bare entry from its store, so it ran
	// one HQS job fewer than the certifying one.
	n := int64(len(formulas))
	if got := certifying.Stats().Engines[EngineHQS].Attempts; got != n {
		t.Fatalf("certifying scheduler: %d HQS attempts, want %d", got, n)
	}
	if got := plain.Stats().Engines[EngineHQS].Attempts; got != n-1 {
		t.Fatalf("plain scheduler: %d HQS attempts, want %d", got, n-1)
	}
}
