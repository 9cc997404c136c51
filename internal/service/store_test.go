package service

import (
	"testing"
	"time"

	"repro/internal/aig"
	"repro/internal/cert"
	"repro/internal/cnf"
	"repro/internal/leakcheck"
	"repro/internal/problem"
	"repro/internal/store"
)

// quietStore opens a store for tests with its degradation log silenced.
func quietStore(t *testing.T, dir string) *store.Store {
	t.Helper()
	s, _, err := store.Open(dir, store.Options{Logf: func(string, ...any) {}})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	return s
}

// TestSchedulerStoreWarmStart is the acceptance scenario: results solved by
// one scheduler are served from disk by a fresh scheduler over the same
// directory — the in-memory LRU is gone, exactly as after a daemon restart —
// with SAT certificates re-verified before serving.
func TestSchedulerStoreWarmStart(t *testing.T) {
	dir := t.TempDir()
	st1 := quietStore(t, dir)
	s1 := NewScheduler(Config{Workers: 2, Store: st1})
	sat, err := s1.Submit(request(paperExample1(), EngineIDQ, Limits{Timeout: 30 * time.Second}))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if out := waitDone(t, sat); out.Verdict != VerdictSat || out.FromStore {
		t.Fatalf("cold solve: %+v", out)
	}
	uns, err := s1.Submit(request(unsatExample(), EngineIDQ, Limits{Timeout: 30 * time.Second}))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if out := waitDone(t, uns); out.Verdict != VerdictUnsat {
		t.Fatalf("cold unsat solve: %+v", out)
	}
	drainNow(t, s1)
	st1.Close()

	st2 := quietStore(t, dir)
	defer st2.Close()
	s2 := NewScheduler(Config{Workers: 2, Store: st2})
	defer drainNow(t, s2)
	j, err := s2.Submit(request(paperExample1(), EngineIDQ, Limits{}))
	if err != nil {
		t.Fatalf("warm Submit: %v", err)
	}
	out := waitDone(t, j)
	if out.Verdict != VerdictSat || !out.FromStore || out.FromCache {
		t.Fatalf("warm SAT not served from store: %+v", out)
	}
	j, err = s2.Submit(request(unsatExample(), EngineIDQ, Limits{}))
	if err != nil {
		t.Fatalf("warm Submit: %v", err)
	}
	if out := waitDone(t, j); out.Verdict != VerdictUnsat || !out.FromStore {
		t.Fatalf("warm UNSAT not served from store: %+v", out)
	}
	stats := s2.Stats()
	if stats.StoreHits != 2 || stats.Store == nil || stats.Store.Hits != 2 {
		t.Fatalf("warm-start stats: %+v / %+v", stats, stats.Store)
	}
	// A repeat now comes from the promoted memory-cache entry, not the disk.
	j, _ = s2.Submit(request(paperExample1(), EngineIDQ, Limits{}))
	if out := waitDone(t, j); !out.FromCache {
		t.Fatalf("store hit was not promoted to the memory cache: %+v", out)
	}
}

// TestSchedulerStoreRejectsBadCertificate plants a checksum-clean entry whose
// certificate does NOT prove the formula. The scheduler must refuse to serve
// it (quarantining the entry) and solve fresh — the store never returns a
// verdict whose certificate fails the checker.
func TestSchedulerStoreRejectsBadCertificate(t *testing.T) {
	dir := t.TempDir()
	f := paperExample1()
	key := problem.CanonicalFormulaHash(f)
	st0 := quietStore(t, dir)
	// y1 and y2 pinned to constant false: violates y1↔x1 under x1=1, so the
	// checker must reject, even though the entry's bytes are pristine.
	bogus := &cert.Certificate{G: aig.New(), Funcs: map[cnf.Var]aig.Ref{3: aig.False, 4: aig.False}}
	if err := st0.Put(&store.Entry{
		Key: key, Verdict: store.VerdictSat, Engine: "idq",
		CreatedUnix: time.Now().Unix(), Cert: bogus,
	}); err != nil {
		t.Fatalf("planting entry: %v", err)
	}
	st0.Close()

	st := quietStore(t, dir)
	defer st.Close()
	s := NewScheduler(Config{Workers: 1, Store: st})
	j, err := s.Submit(request(f, EngineIDQ, Limits{Timeout: 30 * time.Second}))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	out := waitDone(t, j)
	if out.Verdict != VerdictSat || out.FromStore {
		t.Fatalf("want fresh SAT solve, got %+v", out)
	}
	drainNow(t, s) // flushes the write-back of the fresh result
	ss := st.Stats()
	if ss.CertRejected != 1 || ss.Quarantined != 1 {
		t.Fatalf("store stats %+v, want 1 cert-rejected / 1 quarantined", ss)
	}
	// The re-solve wrote a good entry back; it now serves with a cert that
	// passes.
	s2 := NewScheduler(Config{Workers: 1, Store: st})
	defer drainNow(t, s2)
	j2, _ := s2.Submit(request(paperExample1(), EngineIDQ, Limits{}))
	if out := waitDone(t, j2); out.Verdict != VerdictSat || !out.FromStore {
		t.Fatalf("repaired entry not served: %+v", out)
	}
}

// TestSchedulerStoreServesRetiredEngineEntry: an entry whose Engine names an
// engine this build no longer has ("defex", as older builds wrote it) is
// still served, because its verdict rests on its certificate, not on the
// engine — and that certificate is re-checked like any other: a good one is
// served under the recorded engine name, a bad one is quarantined and the
// instance re-solved.
func TestSchedulerStoreServesRetiredEngineEntry(t *testing.T) {
	f := paperExample1()
	good := (&Runner{Certify: true}).Run(nil, request(f, EngineHQS, Limits{Timeout: 30 * time.Second}))
	if good.Verdict != VerdictSat || good.Cert == nil {
		t.Fatalf("reference solve: %+v, want SAT with a certificate", good)
	}
	bogus := &cert.Certificate{G: aig.New(), Funcs: map[cnf.Var]aig.Ref{3: aig.False, 4: aig.False}}
	for _, c := range []struct {
		name      string
		cert      *cert.Certificate
		fromStore bool
	}{{"good certificate", good.Cert, true}, {"bad certificate", bogus, false}} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			st0 := quietStore(t, dir)
			if err := st0.Put(&store.Entry{
				Key: problem.CanonicalFormulaHash(f), Verdict: store.VerdictSat, Engine: "defex",
				CreatedUnix: time.Now().Unix(), Cert: c.cert,
			}); err != nil {
				t.Fatalf("planting entry: %v", err)
			}
			st0.Close()

			st := quietStore(t, dir)
			defer st.Close()
			s := NewScheduler(Config{Workers: 1, Store: st, Certify: true})
			j, err := s.Submit(request(f, EngineHQS, Limits{Timeout: 30 * time.Second}))
			if err != nil {
				t.Fatalf("Submit: %v", err)
			}
			out := waitDone(t, j)
			drainNow(t, s)
			if out.Verdict != VerdictSat || out.FromStore != c.fromStore {
				t.Fatalf("outcome %+v, want SAT with FromStore %v", out, c.fromStore)
			}
			rejected := int64(1)
			if c.fromStore {
				rejected = 0
				if out.Engine != "defex" {
					t.Fatalf("served engine %q, want the recorded \"defex\"", out.Engine)
				}
			}
			if ss := st.Stats(); ss.CertRejected != rejected {
				t.Fatalf("store stats %+v, want %d cert-rejected", ss, rejected)
			}
		})
	}
}

// TestSchedulerStoreBareSATUnderCertify: a SAT entry without a certificate is
// fine normally but below the bar when -certify is on — then it must be
// re-solved, not trusted.
func TestSchedulerStoreBareSATUnderCertify(t *testing.T) {
	dir := t.TempDir()
	f := paperExample1()
	st0 := quietStore(t, dir)
	if err := st0.Put(&store.Entry{
		Key: problem.CanonicalFormulaHash(f), Verdict: store.VerdictSat, Engine: "hqs",
		CreatedUnix: time.Now().Unix(),
	}); err != nil {
		t.Fatal(err)
	}
	st0.Close()

	st := quietStore(t, dir)
	defer st.Close()
	s := NewScheduler(Config{Workers: 1, Store: st, Certify: true})
	defer drainNow(t, s)
	j, err := s.Submit(request(f, EngineIDQ, Limits{Timeout: 30 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	if out := waitDone(t, j); out.Verdict != VerdictSat || out.FromStore {
		t.Fatalf("bare SAT entry served under -certify: %+v", out)
	}
}

// TestSchedulerStoreFaultsNeverChangeVerdict arms every store fault point at
// full probability: reads fail, writes fail, surviving reads are bit-flipped.
// Every request must still get its correct verdict — the store degrades to a
// pure pass-through.
func TestSchedulerStoreFaultsNeverChangeVerdict(t *testing.T) {
	leakcheck.Check(t)
	dir := t.TempDir()
	st0 := quietStore(t, dir)
	s0 := NewScheduler(Config{Workers: 2, Store: st0})
	j, err := s0.Submit(request(paperExample1(), EngineIDQ, Limits{Timeout: 30 * time.Second}))
	if err != nil {
		t.Fatal(err)
	}
	waitDone(t, j)
	drainNow(t, s0)
	st0.Close()

	plan := withFaults(t,
		"store.read:error:p=0.5;store.write:error:p=0.5;store.corrupt:error:p=0.5",
		11)
	st, _, err := store.Open(dir, store.Options{Logf: func(string, ...any) {}, Faults: plan})
	if err != nil {
		t.Fatalf("store.Open: %v", err)
	}
	defer st.Close()
	s := NewScheduler(Config{Workers: 2, CacheSize: -1, Store: st})
	defer drainNow(t, s)
	for i := 0; i < 8; i++ {
		sat, err := s.Submit(request(paperExample1(), EngineIDQ, Limits{Timeout: 30 * time.Second}))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if out := waitDone(t, sat); out.Verdict != VerdictSat {
			t.Fatalf("round %d: disk faults changed SAT verdict: %+v", i, out)
		}
		uns, err := s.Submit(request(unsatExample(), EngineIDQ, Limits{Timeout: 30 * time.Second}))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		if out := waitDone(t, uns); out.Verdict != VerdictUnsat {
			t.Fatalf("round %d: disk faults changed UNSAT verdict: %+v", i, out)
		}
	}
	if ss := st.Stats(); ss.IOErrors == 0 && ss.Corrupt == 0 {
		t.Fatalf("chaos plan never fired: %+v", ss)
	}
}

// TestSchedulerHistoryEvictionCounted drives more jobs than the history bound
// and checks the eviction counter and bounded length surface in Stats.
func TestSchedulerHistoryEvictionCounted(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, HistorySize: 3, CacheSize: -1})
	defer drainNow(t, s)
	for i := 0; i < 8; i++ {
		j, err := s.Submit(request(unsatExample(), EngineIDQ, Limits{Timeout: 30 * time.Second}))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitDone(t, j)
	}
	st := s.Stats()
	if st.HistoryEvicted != 5 || st.HistoryLen != 3 {
		t.Fatalf("history stats %+v, want 5 evicted / len 3", st)
	}
}
