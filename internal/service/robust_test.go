package service

import (
	"encoding/json"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/dqbf"
	"repro/internal/faults"
)

// TestPanicBecomesErrorVerdict: a SAT-oracle panic on every call must not
// escape Runner.Run — it becomes a VerdictError outcome with the stack preserved.
func TestPanicBecomesErrorVerdict(t *testing.T) {
	plan := withFaults(t, "sat.solve:panic", 1)
	out := run(unsatExample(), EngineIDQ, budget.New(budget.Limits{Faults: plan}))
	if out.Verdict != VerdictError {
		t.Fatalf("verdict = %v, want ERROR", out.Verdict)
	}
	if out.Error == "" || !strings.Contains(out.Error, "panicked") {
		t.Fatalf("error text = %q, want a panic message", out.Error)
	}
	if !strings.Contains(out.PanicStack, "goroutine") {
		t.Fatalf("panic stack not captured: %q", out.PanicStack)
	}
}

// solve decides f with the retry/fallback loop of a fresh runner, an
// unlimited budget carrying plan, and a 1ms base backoff.
func solve(f *dqbf.Formula, eng Engine, plan *faults.Plan) Outcome {
	return (&Runner{}).solve(budget.New(budget.Limits{Faults: plan}), request(f, eng, Limits{}),
		RetryPolicy{BaseDelay: time.Millisecond}, nil)
}

// TestRetryRecoversFromTransientFault: a fault that fires exactly once must
// cost one retry, not the verdict.
func TestRetryRecoversFromTransientFault(t *testing.T) {
	out := solve(unsatExample(), EngineIDQ, withFaults(t, "sat.solve:panic:times=1", 1))
	if out.Verdict != VerdictUnsat {
		t.Fatalf("verdict = %v (%s: %s), want UNSAT after retry", out.Verdict, out.Reason, out.Error)
	}
	if out.Attempts != 2 {
		t.Fatalf("attempts = %d, want 2 (one failure, one success)", out.Attempts)
	}
	if out.Fallbacks != 0 {
		t.Fatalf("fallbacks = %d, want 0 (same engine recovered)", out.Fallbacks)
	}
}

// TestSpuriousUnknownIsRetried: an injected spurious Unknown with budget to
// spare must be retried rather than reported.
func TestSpuriousUnknownIsRetried(t *testing.T) {
	out := solve(unsatExample(), EngineIDQ, withFaults(t, "sat.solve:unknown:times=1", 1))
	if out.Verdict != VerdictUnsat {
		t.Fatalf("verdict = %v (%s), want UNSAT after retry", out.Verdict, out.Reason)
	}
	if out.Attempts < 2 {
		t.Fatalf("attempts = %d, want >= 2", out.Attempts)
	}
}

// TestIDQOracleErrorIsError: on paper Example 1, a one-shot injected error
// at sat.solve makes iDQ's attempt an error that names the point, not a
// cancellation, and the retry loop classifies it as a failed attempt and
// answers SAT on the next one. A one-shot spurious Unknown still reads as a
// cancellation. Either fault fires exactly once.
func TestIDQOracleErrorIsError(t *testing.T) {
	for _, tc := range []struct {
		action, reason string
		verdict        Verdict
	}{
		{"error", "error", VerdictError},
		{"unknown", "cancelled", VerdictUnknown},
	} {
		plan := withFaults(t, "sat.solve:"+tc.action+":times=1", 1)
		b := budget.New(budget.Limits{Faults: plan})
		var attempts []Outcome
		out := (&Runner{}).solve(b, request(paperExample1(), EngineIDQ, Limits{}),
			RetryPolicy{BaseDelay: time.Millisecond}, func(o Outcome) { attempts = append(attempts, o) })
		if out.Verdict != VerdictSat || len(attempts) != 2 {
			t.Fatalf("%s: verdict %v after %d attempts, want SAT after 2", tc.action, out.Verdict, len(attempts))
		}
		first := attempts[0]
		if first.Verdict != tc.verdict || first.Reason != tc.reason {
			t.Fatalf("%s: first attempt %v (%s: %s), want %v (%s)", tc.action, first.Verdict, first.Reason, first.Error, tc.verdict, tc.reason)
		}
		if tc.verdict == VerdictError && !strings.Contains(first.Error, string(faults.SATSolve)) {
			t.Fatalf("error: %q does not name %s", first.Error, faults.SATSolve)
		}
		if d := classify(first, b); d != dispositionRetry {
			t.Fatalf("%s: first attempt classified %v, want a retry", tc.action, d)
		}
		if n := plan.Fires(faults.SATSolve); n != 1 {
			t.Fatalf("%s: the fault fired %d times, want 1", tc.action, n)
		}
	}
}

// xorLinkedDQBF is ∀x1∀x2 ∃y1(x1) ∃y2(x2) with matrix (y1⊕y2) ↔ (x1⊕x2):
// satisfiable (y1=x1, y2=x2), but — unlike the paper examples, which
// preprocessing decides outright — its 4-literal XOR clauses survive
// preprocessing, so HQS must run elimination-set selection (the dependency
// sets form a binary cycle, so the MaxSAT oracle runs) and finish in the
// linear phase.
func xorLinkedDQBF() *dqbf.Formula {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddExistential(3, 1)
	f.AddExistential(4, 2)
	// Block every assignment violating (y1 xor y2) <-> (x1 xor x2).
	for a := 0; a < 16; a++ {
		x1, x2, y1, y2 := a&1, (a>>1)&1, (a>>2)&1, (a>>3)&1
		if (y1 ^ y2) != (x1 ^ x2) {
			lit := func(v, val int) int {
				if val == 1 {
					return -v
				}
				return v
			}
			f.Matrix.AddDimacsClause(lit(1, x1), lit(2, x2), lit(3, y1), lit(4, y2))
		}
	}
	return f
}

// TestFallbackChainReachesBaseline: when the requested engine fails every
// attempt, the chain must fall through and another engine must answer. The
// MaxSAT elimination-set oracle is only used by HQS, so poisoning it
// permanently kills HQS on a cyclic instance while leaving iDQ untouched.
func TestFallbackChainReachesBaseline(t *testing.T) {
	out := solve(xorLinkedDQBF(), EngineHQS, withFaults(t, "maxsat.solve:error", 1))
	if out.Verdict != VerdictSat {
		t.Fatalf("verdict = %v (%s: %s), want SAT via fallback", out.Verdict, out.Reason, out.Error)
	}
	if out.Fallbacks == 0 {
		t.Fatal("fallbacks = 0, want > 0 (hqs cannot answer with a poisoned maxsat oracle)")
	}
	if out.Engine == EngineHQS {
		t.Fatalf("winning engine = %s, but its oracle is poisoned", out.Engine)
	}
}

// TestFallbackChainShape pins the documented chain per requested engine.
func TestFallbackChainShape(t *testing.T) {
	cases := []struct {
		eng  Engine
		want []Engine
	}{
		{EngineHQS, []Engine{EngineHQS, EnginePortfolio, EngineIDQ}},
		{EngineExpand, []Engine{EngineExpand, EnginePortfolio, EngineIDQ}},
		{EnginePortfolio, []Engine{EnginePortfolio, EngineIDQ}},
		{"", []Engine{EnginePortfolio, EngineIDQ}},
		{EngineIDQ, []Engine{EngineIDQ}},
	}
	for _, c := range cases {
		got := fallbackChain(c.eng)
		if len(got) != len(c.want) {
			t.Fatalf("fallbackChain(%q) = %v, want %v", c.eng, got, c.want)
		}
		for i := range got {
			if got[i] != c.want[i] {
				t.Fatalf("fallbackChain(%q) = %v, want %v", c.eng, got, c.want)
			}
		}
	}
}

// TestCertificateFailureIsError: a SAT verdict whose Skolem certificate
// fails verification must surface as ERROR, never as a silent SAT.
func TestCertificateFailureIsError(t *testing.T) {
	plan := withFaults(t, "service.certify:error", 1)
	out := run(paperExample1(), EngineIDQ, budget.New(budget.Limits{Faults: plan}))
	if out.Verdict != VerdictError {
		t.Fatalf("verdict = %v, want ERROR on certificate rejection", out.Verdict)
	}
	if !strings.Contains(out.Error, "certificate") {
		t.Fatalf("error text = %q, want certificate rejection", out.Error)
	}
}

// TestSchedulerMetersRetriesAndErrors checks the per-job accounting the
// scheduler exports: injected dispatch errors must show up as Errors, and
// transient engine faults as Retries, with every job still terminal.
func TestSchedulerMetersRetriesAndErrors(t *testing.T) {
	s := NewScheduler(Config{
		Workers:        1,
		DefaultTimeout: 5 * time.Second,
		CacheSize:      -1, // every job must really dispatch
		Retry:          RetryPolicy{MaxAttempts: 1, BaseDelay: time.Millisecond},
		Faults:         withFaults(t, "sched.dispatch:error:every=2", 3),
	})
	defer drainNow(t, s)

	var jobs []*Job
	for i := 0; i < 6; i++ {
		j, err := s.Submit(request(unsatExample(), EngineIDQ, Limits{}))
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, j)
	}
	for _, j := range jobs {
		<-j.Done()
	}
	st := s.Stats()
	if st.Errors != 3 {
		t.Fatalf("stats.Errors = %d, want 3 (dispatch fault fires every 2nd job)", st.Errors)
	}
	if st.Solved != 3 {
		t.Fatalf("stats.Solved = %d, want 3", st.Solved)
	}
	for _, j := range jobs {
		out := j.Outcome()
		if out.Verdict == VerdictError && !strings.Contains(out.Error, "dispatch failed") {
			t.Fatalf("error job has unexpected error text %q", out.Error)
		}
	}
}

// TestVerdictErrorJSONRoundTrip extends the verdict JSON coverage to the new
// ERROR verdict and the failure fields of Outcome.
func TestVerdictErrorJSONRoundTrip(t *testing.T) {
	out := Outcome{
		Verdict:    VerdictError,
		Engine:     EngineHQS,
		Reason:     "error",
		Error:      "engine hqs panicked: boom",
		PanicStack: "goroutine 1 [running]:\n...",
		Attempts:   4,
		Fallbacks:  2,
	}
	data, err := json.Marshal(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"verdict":"ERROR"`) {
		t.Fatalf("marshalled outcome = %s", data)
	}
	var back Outcome
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Verdict != VerdictError || back.Error != out.Error || back.Attempts != 4 || back.Fallbacks != 2 {
		t.Fatalf("round trip mangled outcome: %+v", back)
	}
}
