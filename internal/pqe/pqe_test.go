package pqe

import (
	"errors"
	"math/rand"
	"testing"

	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/faults"
	"repro/internal/problem"
	"repro/internal/trace"
)

func lit(d int) cnf.Lit { return cnf.LitFromDimacs(d) }

func clause(ds ...int) cnf.Clause {
	c := make(cnf.Clause, len(ds))
	for i, d := range ds {
		c[i] = lit(d)
	}
	return c
}

// solveAndVerify runs the query and checks the answer against the exhaustive
// oracle equivalence Q ∧ ∃X[G] ≡ ∃X[F ∧ G].
func solveAndVerify(t *testing.T, q *problem.PQESplit) *Result {
	t.Helper()
	res, err := Solve(q, Options{})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	if err := VerifyResult(q, res.Q); err != nil {
		t.Fatalf("answer not equivalent: %v", err)
	}
	return res
}

// TestTakeOutForcesFree: X = {3}, F = (¬x3), G = (x3 ∨ y1). ∃x3[G] is a
// tautology over y1, but F forces x3 false, so F ∧ G needs y1: the answer
// must be equivalent to the unit clause (y1).
func TestTakeOutForcesFree(t *testing.T) {
	q := &problem.PQESplit{
		NumVars: 3,
		X:       []cnf.Var{3},
		F:       []cnf.Clause{clause(-3)},
		G:       []cnf.Clause{clause(3, 1)},
	}
	res := solveAndVerify(t, q)
	if len(res.Q) == 0 {
		t.Fatal("Q empty: F was dropped, not taken out of scope")
	}
}

// TestRedundantF: F is implied by G, so taking it out of scope adds nothing
// and Q must be vacuous (equivalent to true over Y).
func TestRedundantF(t *testing.T) {
	q := &problem.PQESplit{
		NumVars: 3,
		X:       []cnf.Var{3},
		F:       []cnf.Clause{clause(1, 3, -3)}, // tautological clause
		G:       []cnf.Clause{clause(1, -2), clause(2, -1)},
	}
	solveAndVerify(t, q)
}

// TestGlobalUnsat: F ∧ G unsatisfiable independent of Y — the answer is the
// empty clause.
func TestGlobalUnsat(t *testing.T) {
	q := &problem.PQESplit{
		NumVars: 2,
		X:       []cnf.Var{2},
		F:       []cnf.Clause{clause(2)},
		G:       []cnf.Clause{clause(-2)},
	}
	res := solveAndVerify(t, q)
	empty := false
	for _, c := range res.Q {
		if len(c) == 0 {
			empty = true
		}
	}
	if !empty {
		t.Fatalf("Q = %v, want the empty clause for a globally unsatisfiable split", res.Q)
	}
}

// TestEmptyX degenerates PQE to implication filtering: with nothing
// quantified, Q must make Q ∧ G equivalent to F ∧ G.
func TestEmptyX(t *testing.T) {
	q := &problem.PQESplit{
		NumVars: 2,
		F:       []cnf.Clause{clause(1)},
		G:       []cnf.Clause{clause(1, 2)},
	}
	solveAndVerify(t, q)
}

// TestNoFreeVars: everything is quantified; the only possible answers are
// "true" (empty Q) or "false" ({∅}).
func TestNoFreeVars(t *testing.T) {
	sat := &problem.PQESplit{
		NumVars: 2,
		X:       []cnf.Var{1, 2},
		F:       []cnf.Clause{clause(1, 2)},
		G:       []cnf.Clause{clause(-1, -2)},
	}
	res := solveAndVerify(t, sat)
	if len(res.Q) != 0 {
		t.Fatalf("Q = %v, want empty for a satisfiable fully quantified split", res.Q)
	}
	unsat := &problem.PQESplit{
		NumVars: 1,
		X:       []cnf.Var{1},
		F:       []cnf.Clause{clause(1)},
		G:       []cnf.Clause{clause(-1)},
	}
	res = solveAndVerify(t, unsat)
	if len(res.Q) != 1 || len(res.Q[0]) != 0 {
		t.Fatalf("Q = %v, want {∅}", res.Q)
	}
}

func TestInvalidSplitRejected(t *testing.T) {
	q := &problem.PQESplit{NumVars: 1, X: []cnf.Var{2}}
	if _, err := Solve(q, Options{}); err == nil {
		t.Fatal("out-of-range X accepted")
	}
}

func TestMaxRounds(t *testing.T) {
	// Needs at least a few rounds: every Y assignment satisfies both sides,
	// so each is blocked one at a time.
	q := &problem.PQESplit{
		NumVars: 4,
		X:       []cnf.Var{4},
		F:       []cnf.Clause{clause(4, 1, 2, 3)},
		G:       []cnf.Clause{clause(4, -4)},
	}
	_, err := Solve(q, Options{MaxRounds: 1})
	if !errors.Is(err, ErrRounds) {
		t.Fatalf("err = %v, want ErrRounds", err)
	}
}

func TestBudgetCancellation(t *testing.T) {
	b := budget.New(budget.Limits{})
	b.Cancel()
	q := &problem.PQESplit{
		NumVars: 2,
		X:       []cnf.Var{2},
		F:       []cnf.Clause{clause(-2)},
		G:       []cnf.Clause{clause(2, 1)},
	}
	if _, err := Solve(q, Options{Budget: b}); err == nil {
		t.Fatal("cancelled budget not reported")
	}
}

func TestTraceEvents(t *testing.T) {
	rec := trace.NewRecorder(0)
	q := &problem.PQESplit{
		NumVars: 3,
		X:       []cnf.Var{3},
		F:       []cnf.Clause{clause(-3)},
		G:       []cnf.Clause{clause(3, 1)},
	}
	res, err := Solve(q, Options{Trace: rec})
	if err != nil {
		t.Fatalf("Solve: %v", err)
	}
	evs := rec.Events()
	if len(evs) == 0 {
		t.Fatal("no trace events emitted")
	}
	last := evs[len(evs)-1]
	if last.Stage != "pqe" || last.Pass != "pqe-round" {
		t.Fatalf("event tagged %s/%s", last.Stage, last.Pass)
	}
	if last.Counters["sat_calls"] != int64(res.SATCalls) {
		t.Fatalf("sat_calls counter %d, result says %d", last.Counters["sat_calls"], res.SATCalls)
	}
}

func TestFaultInjection(t *testing.T) {
	plan, err := faults.ParseSpec("pqe.solve:error:p=1", 1)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	q := &problem.PQESplit{NumVars: 1, F: []cnf.Clause{clause(1)}}
	if _, err := Solve(q, Options{Budget: budget.New(budget.Limits{Faults: plan})}); err == nil {
		t.Fatal("injected fault not surfaced")
	}
}

// TestRandomizedEquivalence cross-checks the CEGAR loop against the
// exhaustive oracle on random small splits.
func TestRandomizedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	const numVars = 6
	randClauses := func(n int) []cnf.Clause {
		out := make([]cnf.Clause, n)
		for i := range out {
			width := 1 + rng.Intn(3)
			c := make(cnf.Clause, 0, width)
			for len(c) < width {
				v := cnf.Var(1 + rng.Intn(numVars))
				l := cnf.PosLit(v)
				if rng.Intn(2) == 0 {
					l = l.Not()
				}
				c = append(c, l)
			}
			out[i] = c
		}
		return out
	}
	for i := 0; i < 60; i++ {
		var x []cnf.Var
		for v := cnf.Var(1); v <= numVars; v++ {
			if rng.Intn(3) == 0 {
				x = append(x, v)
			}
		}
		q := &problem.PQESplit{
			NumVars: numVars,
			X:       x,
			F:       randClauses(1 + rng.Intn(3)),
			G:       randClauses(1 + rng.Intn(4)),
		}
		res, err := Solve(q, Options{MaxRounds: 4096})
		if err != nil {
			t.Fatalf("case %d: Solve: %v (split %+v)", i, err, q)
		}
		if err := VerifyResult(q, res.Q); err != nil {
			t.Fatalf("case %d: %v (split %+v, Q %v)", i, err, q, res.Q)
		}
	}
}

// TestVerifyResultCatchesWrongAnswers makes sure the verifier itself has
// teeth: a clause over X and a flat-out wrong Q must both be rejected.
func TestVerifyResultCatchesWrongAnswers(t *testing.T) {
	q := &problem.PQESplit{
		NumVars: 3,
		X:       []cnf.Var{3},
		F:       []cnf.Clause{clause(-3)},
		G:       []cnf.Clause{clause(3, 1)},
	}
	if err := VerifyResult(q, []cnf.Clause{clause(3)}); err == nil {
		t.Fatal("answer clause over X accepted")
	}
	if err := VerifyResult(q, nil); err == nil {
		t.Fatal("empty Q accepted for a query whose answer is (y1)")
	}
	if err := VerifyResult(q, []cnf.Clause{clause(-1)}); err == nil {
		t.Fatal("wrong unit clause accepted")
	}
}
