package service

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/problem"
)

// paperExample1 is ∀x1∀x2 ∃y1(x1) ∃y2(x2) with matrix (y1↔x1)∧(y2↔x2):
// satisfiable, no equivalent QBF prefix (paper Example 1).
func paperExample1() *dqbf.Formula {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddExistential(3, 1)
	f.AddExistential(4, 2)
	f.Matrix.AddDimacsClause(-3, 1)
	f.Matrix.AddDimacsClause(3, -1)
	f.Matrix.AddDimacsClause(-4, 2)
	f.Matrix.AddDimacsClause(4, -2)
	return f
}

// unsatExample is ∀x ∃y(∅) with matrix (y↔x): unsatisfiable because y cannot
// depend on x.
func unsatExample() *dqbf.Formula {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddExistential(2)
	f.Matrix.AddDimacsClause(-2, 1)
	f.Matrix.AddDimacsClause(2, -1)
	return f
}

// pigeonholeDQBF is PHP(n+1, n) as an existential-only DQBF — UNSAT and
// exponentially hard for CDCL, so both engines grind on it long enough for a
// mid-solve cancellation to land inside a SAT oracle call.
func pigeonholeDQBF(n int) *dqbf.Formula {
	f := dqbf.New()
	v := cnf.Var(0)
	next := func() cnf.Var { v++; f.AddExistential(v); return v }
	p := make([][]cnf.Var, n+1)
	for i := range p {
		p[i] = make([]cnf.Var, n)
		for j := range p[i] {
			p[i][j] = next()
		}
	}
	for i := 0; i <= n; i++ {
		c := make([]cnf.Lit, 0, n)
		for j := 0; j < n; j++ {
			c = append(c, cnf.PosLit(p[i][j]))
		}
		f.Matrix.AddClause(c...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= n; i++ {
			for k := i + 1; k <= n; k++ {
				f.Matrix.AddClause(cnf.NegLit(p[i][j]), cnf.NegLit(p[k][j]))
			}
		}
	}
	return f
}

// request lifts a bare formula into a Request.
func request(f *dqbf.Formula, eng Engine, lim Limits) Request {
	return Request{Problem: problem.FromDQBF(f), Engine: eng, Limits: lim}
}

// run makes one attempt on f with a fresh non-certifying runner.
func run(f *dqbf.Formula, eng Engine, b *budget.Budget) Outcome {
	return (&Runner{}).Run(b, request(f, eng, Limits{}))
}

func TestRunEngines(t *testing.T) {
	for _, eng := range allEngines() {
		for _, tc := range []struct {
			f    *dqbf.Formula
			want Verdict
		}{
			{paperExample1(), VerdictSat},
			{unsatExample(), VerdictUnsat},
		} {
			out := run(tc.f, eng, budget.WithTimeout(30*time.Second))
			if out.Verdict != tc.want {
				t.Fatalf("%s: verdict = %v, want %v", eng, out.Verdict, tc.want)
			}
			if out.Reason != "solved" {
				t.Fatalf("%s: reason = %q, want solved", eng, out.Reason)
			}
		}
	}
}

func TestRunUnknownEngine(t *testing.T) {
	if out := run(paperExample1(), Engine("bogus"), nil); out.Verdict != VerdictError || !strings.Contains(out.Error, "unknown engine") {
		t.Fatalf("unknown engine: %+v, want an Error outcome", out)
	}
	pq := &problem.Problem{Kind: problem.KindPQE, PQE: &problem.PQESplit{}}
	if out := (&Runner{}).Run(nil, Request{Problem: pq, Engine: EngineHQS}); out.Verdict != VerdictError {
		t.Fatalf("PQE problem through Run: %+v, want an Error outcome", out)
	}
	if _, err := ParseEngine("bogus"); err == nil {
		t.Fatal("want error from ParseEngine")
	}
	if eng, err := ParseEngine(""); err != nil || eng != EnginePortfolio {
		t.Fatalf("ParseEngine(\"\") = %v, %v; want portfolio", eng, err)
	}
}

// TestRetiredEngineIsUnknown: the definition-extraction engine ("defex")
// is gone, so its name gets the ordinary unknown-engine error, which lists
// the engines that remain.
func TestRetiredEngineIsUnknown(t *testing.T) {
	const want = `unknown engine "defex" (want hqs, idq, expand, or portfolio)`
	if _, err := ParseEngine("defex"); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("ParseEngine(\"defex\") = %v, want an error containing %q", err, want)
	}
	if out := run(paperExample1(), Engine("defex"), nil); out.Verdict != VerdictError || !strings.Contains(out.Error, want) {
		t.Fatalf("Run with engine defex: %+v, want an Error outcome containing %q", out, want)
	}
}

// TestCancelMidSolve is the tentpole cancellation scenario: a hard instance
// is cancelled mid-solve and each engine must return Unknown promptly.
func TestCancelMidSolve(t *testing.T) {
	for _, eng := range []Engine{EngineHQS, EngineIDQ, EnginePortfolio} {
		eng := eng
		t.Run(string(eng), func(t *testing.T) {
			t.Parallel()
			b := budget.New(budget.Limits{})
			go func() {
				time.Sleep(50 * time.Millisecond)
				b.Cancel()
			}()
			start := time.Now()
			out := run(pigeonholeDQBF(11), eng, b)
			elapsed := time.Since(start)
			if out.Verdict != VerdictUnknown {
				t.Fatalf("verdict = %v (in %v), want UNKNOWN", out.Verdict, elapsed)
			}
			if out.Reason != "cancelled" {
				t.Fatalf("reason = %q, want cancelled", out.Reason)
			}
			if elapsed > 10*time.Second {
				t.Fatalf("cancellation took %v, want prompt return", elapsed)
			}
		})
	}
}

// TestPortfolioDeterministicAnswer races the portfolio repeatedly on both a
// SAT and an UNSAT instance: whichever engine wins, the verdict must not
// change.
func TestPortfolioDeterministicAnswer(t *testing.T) {
	for i := 0; i < 8; i++ {
		out := run(paperExample1(), EnginePortfolio, budget.WithTimeout(30*time.Second))
		if out.Verdict != VerdictSat {
			t.Fatalf("round %d: got %v (%s), want SAT", i, out.Verdict, out.Error)
		}
		out = run(unsatExample(), EnginePortfolio, budget.WithTimeout(30*time.Second))
		if out.Verdict != VerdictUnsat {
			t.Fatalf("round %d: got %v (%s), want UNSAT", i, out.Verdict, out.Error)
		}
	}
}

func TestPortfolioTimeout(t *testing.T) {
	out := run(pigeonholeDQBF(11), EnginePortfolio, budget.WithTimeout(100*time.Millisecond))
	if out.Verdict != VerdictUnknown || out.Reason != "timeout" {
		t.Fatalf("got verdict %v reason %q, want UNKNOWN/timeout", out.Verdict, out.Reason)
	}
}

// TestPortfolioAgreesWithSerial is the three-arm acceptance check: on random
// instances the portfolio verdict must match every serial engine that can
// decide the instance within its own limits.
func TestPortfolioAgreesWithSerial(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for i := 0; i < 25; i++ {
		f := dqbf.RandomFormula(rng, 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(10))
		port := run(f, EnginePortfolio, budget.WithTimeout(30*time.Second))
		if port.Verdict != VerdictSat && port.Verdict != VerdictUnsat {
			t.Fatalf("instance %d: portfolio verdict %v (%s)", i, port.Verdict, port.Reason)
		}
		for _, eng := range []Engine{EngineHQS, EngineIDQ, EngineExpand} {
			out := run(f, eng, budget.WithTimeout(30*time.Second))
			if out.Verdict != VerdictSat && out.Verdict != VerdictUnsat {
				continue // engine-local limit; nothing to compare
			}
			if out.Verdict != port.Verdict {
				t.Fatalf("instance %d: %s says %v, portfolio says %v\nclauses %v",
					i, eng, out.Verdict, port.Verdict, f.Matrix.Clauses)
			}
		}
	}
}

// TestEngineStatsMetering pins the per-engine win accounting: serial runs win
// for themselves, and a portfolio run credits exactly one arm — the one whose
// outcome the race returns — never the portfolio row itself, and never a
// losing arm that also finished before its cancel landed. The meters belong
// to the runner, so the test runs in parallel with everything else and needs
// no reset.
func TestEngineStatsMetering(t *testing.T) {
	t.Parallel()
	all := allEngines()
	arms := all[:numArms]
	for _, eng := range arms {
		r := &Runner{}
		r.Run(budget.WithTimeout(30*time.Second), request(paperExample1(), eng, Limits{}))
		st := r.Stats().Engines
		if st[eng].Attempts != 1 || st[eng].Wins != 1 {
			t.Fatalf("%s: counters = %+v, want 1 attempt / 1 win", eng, st[eng])
		}
	}

	// Tiny instances, so losing arms often finish before their cancel lands.
	const rounds = 20
	r := &Runner{}
	definitive := int64(0)
	for i := 0; i < rounds; i++ {
		for _, f := range []*dqbf.Formula{unsatExample(), paperExample1()} {
			out := r.Run(budget.WithTimeout(30*time.Second), request(f, EnginePortfolio, Limits{}))
			if out.Verdict == VerdictSat || out.Verdict == VerdictUnsat {
				definitive++
			}
		}
	}
	st := r.Stats().Engines
	if st[EnginePortfolio].Attempts != 2*rounds {
		t.Fatalf("portfolio attempts = %d, want %d", st[EnginePortfolio].Attempts, 2*rounds)
	}
	if st[EnginePortfolio].Wins != 0 {
		t.Fatalf("portfolio wins = %d, want 0 (wins go to the arm)", st[EnginePortfolio].Wins)
	}
	armWins := int64(0)
	for _, eng := range arms {
		armWins += st[eng].Wins
	}
	if armWins != definitive {
		t.Fatalf("arms credited with %d wins for %d definitive portfolio verdicts, want one each\n%s",
			armWins, definitive, FormatEngineStats(st))
	}
	if s := FormatEngineStats(st); !strings.Contains(s, "attempts=") {
		t.Fatalf("FormatEngineStats output %q lacks counters", s)
	}
}

func TestCanonicalHashInvariance(t *testing.T) {
	base := paperExample1()

	perm := dqbf.New()
	perm.AddUniversal(2) // universal order swapped
	perm.AddUniversal(1)
	perm.AddExistential(4, 2) // existential order swapped
	perm.AddExistential(3, 1)
	perm.Matrix.AddDimacsClause(4, -2) // clause order and literal order shuffled
	perm.Matrix.AddDimacsClause(-4, 2)
	perm.Matrix.AddDimacsClause(1, -3)
	perm.Matrix.AddDimacsClause(-1, 3)

	if problem.CanonicalFormulaHash(base) != problem.CanonicalFormulaHash(perm) {
		t.Fatal("hash not invariant under prefix/clause/literal reordering")
	}
	if problem.CanonicalFormulaHash(base) == problem.CanonicalFormulaHash(unsatExample()) {
		t.Fatal("distinct formulas collide")
	}

	// A changed dependency set must change the hash even when everything
	// else agrees.
	dep := paperExample1()
	dep.Deps[3].Add(2)
	if problem.CanonicalFormulaHash(base) == problem.CanonicalFormulaHash(dep) {
		t.Fatal("hash ignores dependency sets")
	}
}

func TestResultCacheLRU(t *testing.T) {
	c := newResultCache(2)
	c.Put("a", Outcome{Verdict: VerdictSat})
	c.Put("b", Outcome{Verdict: VerdictUnsat})
	if _, ok := c.Get("a"); !ok { // refresh a; b becomes LRU
		t.Fatal("a missing")
	}
	c.Put("c", Outcome{Verdict: VerdictSat})
	if _, ok := c.Get("b"); ok {
		t.Fatal("b should have been evicted")
	}
	if _, ok := c.Get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if c.Len() != 2 {
		t.Fatalf("len = %d, want 2", c.Len())
	}
}

func waitDone(t *testing.T, j *Job) Outcome {
	t.Helper()
	select {
	case <-j.Done():
	case <-time.After(60 * time.Second):
		t.Fatalf("job %s did not finish", j.ID())
	}
	return j.Outcome()
}

func TestSchedulerSolvesAndCaches(t *testing.T) {
	s := NewScheduler(Config{Workers: 2})
	defer s.Drain(context.Background())

	j1, err := s.Submit(request(paperExample1(), EnginePortfolio, Limits{Timeout: 30 * time.Second}))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	out := waitDone(t, j1)
	if out.Verdict != VerdictSat || out.FromCache {
		t.Fatalf("first solve: %+v", out)
	}
	info := j1.Info()
	if info.State != StateDone || info.Outcome == nil || info.Outcome.Verdict != VerdictSat {
		t.Fatalf("job info: %+v", info)
	}

	// Same instance with permuted clauses must hit the cache.
	perm := paperExample1()
	perm.Matrix.Clauses[0], perm.Matrix.Clauses[3] = perm.Matrix.Clauses[3], perm.Matrix.Clauses[0]
	j2, err := s.Submit(request(perm, EngineHQS, Limits{}))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	out = waitDone(t, j2)
	if out.Verdict != VerdictSat || !out.FromCache {
		t.Fatalf("second solve not from cache: %+v", out)
	}
	if st := s.Stats(); st.CacheHits != 1 || st.Solved != 2 {
		t.Fatalf("stats: %+v", st)
	}
}

func TestSchedulerConcurrentSubmit(t *testing.T) {
	s := NewScheduler(Config{Workers: 4, QueueCap: 256, CacheSize: -1})
	defer s.Drain(context.Background())

	const n = 32
	var wg sync.WaitGroup
	outs := make([]Outcome, n)
	for i := 0; i < n; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			f := paperExample1()
			want := VerdictSat
			if i%2 == 1 {
				f = unsatExample()
				want = VerdictUnsat
			}
			j, err := s.Submit(request(f, EnginePortfolio, Limits{Timeout: 30 * time.Second}))
			if err != nil {
				t.Errorf("submit %d: %v", i, err)
				return
			}
			select {
			case <-j.Done():
			case <-time.After(60 * time.Second):
				t.Errorf("job %d stuck", i)
				return
			}
			outs[i] = j.Outcome()
			if outs[i].Verdict != want {
				t.Errorf("job %d: verdict %v, want %v", i, outs[i].Verdict, want)
			}
		}()
	}
	wg.Wait()
	if st := s.Stats(); st.Completed != n || st.Submitted != n {
		t.Fatalf("stats: %+v", st)
	}
}

// TestSchedulerStatsNotRunningAfterDone checks that a finished job no longer
// counts as running by the time its Done channel closes: a caller woken by
// Done, with nothing else submitted, must read Running == 0.
func TestSchedulerStatsNotRunningAfterDone(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, CacheSize: -1})
	defer s.Drain(context.Background())
	for i := 0; i < 10000; i++ {
		j, err := s.Submit(request(unsatExample(), EngineIDQ, Limits{}))
		if err != nil {
			t.Fatalf("submit %d: %v", i, err)
		}
		waitDone(t, j)
		if st := s.Stats(); st.Running != 0 {
			t.Fatalf("submit %d: Running = %d right after Done, want 0", i, st.Running)
		}
	}
}

func TestSchedulerCancelRunningJob(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, CacheSize: -1})
	defer s.Drain(context.Background())

	j, err := s.Submit(request(pigeonholeDQBF(11), EngineHQS, Limits{}))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	// Wait until a worker picks the job up, then cancel mid-solve.
	deadline := time.Now().Add(10 * time.Second)
	for j.Info().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("job never started running")
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond)
	if err := s.Cancel(j.ID()); err != nil {
		t.Fatalf("Cancel: %v", err)
	}
	out := waitDone(t, j)
	if out.Verdict != VerdictUnknown || out.Reason != "cancelled" {
		t.Fatalf("cancelled job: %+v", out)
	}
	// The worker must remain usable: a fresh easy job still solves.
	j2, err := s.Submit(request(paperExample1(), EngineHQS, Limits{Timeout: 30 * time.Second}))
	if err != nil {
		t.Fatalf("Submit after cancel: %v", err)
	}
	if out := waitDone(t, j2); out.Verdict != VerdictSat {
		t.Fatalf("post-cancel solve: %+v", out)
	}
	if err := s.Cancel("nope"); !errors.Is(err, ErrNoSuchJob) {
		t.Fatalf("Cancel(nope) = %v, want ErrNoSuchJob", err)
	}
}

func TestSchedulerQueueFullAndLimits(t *testing.T) {
	// One worker stuck on a hard job, a queue of one: the third submit must
	// be rejected with ErrQueueFull.
	s := NewScheduler(Config{Workers: 1, QueueCap: 1, CacheSize: -1})
	blocker, err := s.Submit(request(pigeonholeDQBF(11), EngineHQS, Limits{}))
	if err != nil {
		t.Fatalf("Submit blocker: %v", err)
	}
	deadline := time.Now().Add(10 * time.Second)
	for blocker.Info().State != StateRunning {
		if time.Now().After(deadline) {
			t.Fatal("blocker never started")
		}
		time.Sleep(time.Millisecond)
	}
	if _, err := s.Submit(request(paperExample1(), EngineHQS, Limits{})); err != nil {
		t.Fatalf("queued submit: %v", err)
	}
	if _, err := s.Submit(request(paperExample1(), EngineHQS, Limits{})); !errors.Is(err, ErrQueueFull) {
		t.Fatalf("want ErrQueueFull, got %v", err)
	}
	if _, err := s.Submit(request(paperExample1(), Engine("bogus"), Limits{})); err == nil {
		t.Fatal("want engine validation error")
	}
	bad := dqbf.New()
	bad.Matrix.AddDimacsClause(1) // free variable: must be rejected
	if _, err := s.Submit(request(bad, EngineHQS, Limits{})); err == nil {
		t.Fatal("want validation error for free variable")
	}

	// MaxTimeout clamp: with a 50ms cap the blocker-class job times out.
	s2 := NewScheduler(Config{Workers: 1, CacheSize: -1, MaxTimeout: 50 * time.Millisecond})
	j, err := s2.Submit(request(pigeonholeDQBF(11), EngineHQS, Limits{Timeout: time.Hour}))
	if err != nil {
		t.Fatalf("Submit: %v", err)
	}
	if out := waitDone(t, j); out.Verdict != VerdictUnknown || out.Reason != "timeout" {
		t.Fatalf("clamped job: %+v", out)
	}
	if err := s2.Drain(context.Background()); err != nil {
		t.Fatalf("drain s2: %v", err)
	}

	// Hard drain: cancel the blocker via the drain context.
	ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
	defer cancel()
	if err := s.Drain(ctx); !errors.Is(err, context.DeadlineExceeded) {
		t.Fatalf("hard drain: %v", err)
	}
	if out := blocker.Outcome(); out.Verdict != VerdictUnknown {
		t.Fatalf("blocker after hard drain: %+v", out)
	}
	if _, err := s.Submit(request(paperExample1(), EngineHQS, Limits{})); !errors.Is(err, ErrDraining) {
		t.Fatalf("submit after drain = %v, want ErrDraining", err)
	}
	if !s.Draining() {
		t.Fatal("Draining() = false after Drain")
	}
}

func TestSchedulerDrainWaitsForQueued(t *testing.T) {
	s := NewScheduler(Config{Workers: 2, CacheSize: -1})
	jobs := make([]*Job, 0, 8)
	for i := 0; i < 8; i++ {
		j, err := s.Submit(request(paperExample1(), EngineIDQ, Limits{Timeout: 30 * time.Second}))
		if err != nil {
			t.Fatalf("Submit %d: %v", i, err)
		}
		jobs = append(jobs, j)
	}
	if err := s.Drain(context.Background()); err != nil {
		t.Fatalf("Drain: %v", err)
	}
	for i, j := range jobs {
		select {
		case <-j.Done():
		default:
			t.Fatalf("job %d unfinished after drain", i)
		}
		if out := j.Outcome(); out.Verdict != VerdictSat {
			t.Fatalf("job %d: %+v", i, out)
		}
	}
}

func TestJobHistoryEviction(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, HistorySize: 2, CacheSize: -1})
	defer s.Drain(context.Background())
	var ids []string
	for i := 0; i < 4; i++ {
		j, err := s.Submit(request(unsatExample(), EngineIDQ, Limits{Timeout: 30 * time.Second}))
		if err != nil {
			t.Fatalf("Submit: %v", err)
		}
		waitDone(t, j)
		ids = append(ids, j.ID())
	}
	if _, ok := s.Job(ids[0]); ok {
		t.Fatal("oldest job should have been evicted")
	}
	if _, ok := s.Job(ids[3]); !ok {
		t.Fatal("newest job missing")
	}
}

func TestVerdictJSON(t *testing.T) {
	for v, want := range map[Verdict]string{
		VerdictSat:     `"SAT"`,
		VerdictUnsat:   `"UNSAT"`,
		VerdictUnknown: `"UNKNOWN"`,
	} {
		b, err := v.MarshalJSON()
		if err != nil || string(b) != want {
			t.Fatalf("MarshalJSON(%v) = %s, %v; want %s", v, b, err, want)
		}
		if fmt.Sprint(v) != want[1:len(want)-1] {
			t.Fatalf("String(%d) = %s", int(v), v)
		}
	}
}

// TestSchedulerSolvePQE: a PQE query answers on the caller's goroutine, and
// a context that has ended stops it with the budget's cancel reason — the
// path /pqe takes when its client goes away.
func TestSchedulerSolvePQE(t *testing.T) {
	// ∃x3[(¬x3) ∧ (x3 ∨ y1)]: the exact answer is the unit clause (y1).
	q, err := problem.ParseBytes([]byte("p pqe 3 1 1\ne 3 0\n-3 0\n3 1 0\n"), "")
	if err != nil {
		t.Fatal(err)
	}
	// The first query runs clean; every later one is held up 50ms first.
	s := NewScheduler(Config{Workers: 1, Faults: withFaults(t, "pqe.solve:latency:after=1,latency=50ms", 1)})
	defer drainNow(t, s)
	out := s.SolvePQE(context.Background(), Request{Problem: q})
	if out.Err != nil || len(out.Result.Q) != 1 {
		t.Fatalf("PQE query: %+v", out)
	}
	if _, err := s.Submit(Request{Problem: q}); err == nil {
		t.Fatal("Submit accepted a PQE query")
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	out = s.SolvePQE(ctx, Request{Problem: q})
	if !out.Stopped || !errors.Is(out.Err, budget.ErrCancelled) || out.Result != nil {
		t.Fatalf("PQE query with an ended context: %+v, want stopped by cancellation", out)
	}
	if st := s.Stats(); st.PQEQueries != 2 || st.PQEFailures != 1 {
		t.Fatalf("pqe meters: %d queries, %d failures; want 2 and 1", st.PQEQueries, st.PQEFailures)
	}
}
