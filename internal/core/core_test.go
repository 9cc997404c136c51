package core

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/aig"
	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/faults"
	"repro/internal/problem"
)

// paperExample1 is ∀x1∀x2 ∃y1(x1) ∃y2(x2) with matrix (y1↔x1)∧(y2↔x2):
// satisfiable, but with no equivalent QBF prefix.
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

func crossExample() *dqbf.Formula {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddExistential(3, 2)
	f.AddExistential(4, 1)
	f.Matrix.AddDimacsClause(-3, 1)
	f.Matrix.AddDimacsClause(3, -1)
	f.Matrix.AddDimacsClause(-4, 2)
	f.Matrix.AddDimacsClause(4, -2)
	return f
}

func TestSolvePaperExample1(t *testing.T) {
	for _, opt := range testOptionMatrix() {
		res := New(opt).Solve(problem.FromDQBF(paperExample1()))
		if res.Status != Solved || !res.Sat {
			t.Fatalf("opt %+v: got %v/%v, want solved SAT", opt, res.Status, res.Sat)
		}
	}
}

func TestSolveCrossExampleUnsat(t *testing.T) {
	for _, opt := range testOptionMatrix() {
		res := New(opt).Solve(problem.FromDQBF(crossExample()))
		if res.Status != Solved || res.Sat {
			t.Fatalf("opt %+v: got %v/%v, want solved UNSAT", opt, res.Status, res.Sat)
		}
	}
}

// testOptionMatrix covers the solver feature combinations.
func testOptionMatrix() []Options {
	plain := Options{Strategy: ElimMaxSAT}
	noPre := DefaultOptions()
	noPre.Preprocess = false
	noPre.DetectGates = false
	noUP := DefaultOptions()
	noUP.UnitPure = false
	greedy := DefaultOptions()
	greedy.Strategy = ElimGreedy
	all := DefaultOptions()
	all.Strategy = ElimAll
	rev := DefaultOptions()
	rev.ReverseElimOrder = true
	sweepy := DefaultOptions()
	sweepy.SweepThreshold = 1
	return []Options{DefaultOptions(), plain, noPre, noUP, greedy, all, rev, sweepy}
}

// randomDQBF generates a small random DQBF within brute-force reach.
func randomDQBF(rng *rand.Rand, nUniv, nExist, nClauses int) *dqbf.Formula {
	f := dqbf.New()
	for i := 1; i <= nUniv; i++ {
		f.AddUniversal(cnf.Var(i))
	}
	for i := 0; i < nExist; i++ {
		y := cnf.Var(nUniv + i + 1)
		var deps []cnf.Var
		for _, x := range f.Univ {
			if rng.Intn(2) == 0 {
				deps = append(deps, x)
			}
		}
		f.AddExistential(y, deps...)
	}
	n := nUniv + nExist
	for i := 0; i < nClauses; i++ {
		k := 1 + rng.Intn(3)
		c := make(cnf.Clause, 0, k)
		for j := 0; j < k; j++ {
			c = append(c, cnf.NewLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0))
		}
		f.Matrix.Clauses = append(f.Matrix.Clauses, c)
	}
	return f
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(2024))
	opts := testOptionMatrix()
	for iter := 0; iter < 250; iter++ {
		f := randomDQBF(rng, 1+rng.Intn(3), 1+rng.Intn(3), 2+rng.Intn(10))
		want, err := dqbf.BruteForce(f)
		if err != nil {
			t.Fatal(err)
		}
		opt := opts[iter%len(opts)]
		res := New(opt).Solve(problem.FromDQBF(f))
		if res.Status != Solved {
			t.Fatalf("iter %d: status %v", iter, res.Status)
		}
		if res.Sat != want {
			t.Fatalf("iter %d opt %+v: got %v want %v\nprefix %v\nclauses %v",
				iter, opt, res.Sat, want, f, f.Matrix.Clauses)
		}
	}
}

func TestRandomAllOptionsAgree(t *testing.T) {
	// Larger instances beyond brute force: every configuration must agree
	// with the default configuration.
	rng := rand.New(rand.NewSource(77))
	opts := testOptionMatrix()
	for iter := 0; iter < 40; iter++ {
		f := randomDQBF(rng, 2+rng.Intn(4), 2+rng.Intn(4), 5+rng.Intn(20))
		ref := New(DefaultOptions()).Solve(problem.FromDQBF(f))
		if ref.Status != Solved {
			t.Fatalf("iter %d: reference status %v", iter, ref.Status)
		}
		for _, opt := range opts {
			res := New(opt).Solve(problem.FromDQBF(f))
			if res.Status != Solved || res.Sat != ref.Sat {
				t.Fatalf("iter %d opt %+v: got %v/%v, reference %v",
					iter, opt, res.Status, res.Sat, ref.Sat)
			}
		}
	}
}

func TestTseitinCircuitInstances(t *testing.T) {
	// A DQBF whose matrix is a Tseitin-encoded circuit, to exercise gate
	// detection end to end: ∀x1∀x2 ∃y1(x1) ∃y2(x2), aux g = x1 ⊕ x2 (dep
	// both), constraint g ↔ (y1 ⊕ y2). Satisfiable: y1 = x1, y2 = x2.
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddExistential(3, 1)    // y1
	f.AddExistential(4, 2)    // y2
	f.AddExistential(5, 1, 2) // g: Tseitin output
	// g ↔ x1⊕x2
	f.Matrix.AddDimacsClause(-5, 1, 2)
	f.Matrix.AddDimacsClause(-5, -1, -2)
	f.Matrix.AddDimacsClause(5, 1, -2)
	f.Matrix.AddDimacsClause(5, -1, 2)
	// g ↔ y1⊕y2 (forces the functions to track the inputs' xor)
	f.Matrix.AddDimacsClause(-5, 3, 4)
	f.Matrix.AddDimacsClause(-5, -3, -4)
	f.Matrix.AddDimacsClause(5, 3, -4)
	f.Matrix.AddDimacsClause(5, -3, 4)
	want, err := dqbf.BruteForce(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, opt := range testOptionMatrix() {
		res := New(opt).Solve(problem.FromDQBF(f))
		if res.Status != Solved || res.Sat != want {
			t.Fatalf("opt %+v: got %v/%v want %v", opt, res.Status, res.Sat, want)
		}
	}
	// With gate detection on, at least one gate must be found.
	res := New(DefaultOptions()).Solve(problem.FromDQBF(f))
	if res.Stats.Pass("hqs", "preprocess").Counters["gates"] == 0 {
		t.Fatal("expected XOR gate detection")
	}
}

// hardInstance builds an instance that preprocessing alone cannot decide
// (ternary clauses only, incomparable dependency sets).
func hardInstance(seed int64, nUniv, nExist int) *dqbf.Formula {
	rng := rand.New(rand.NewSource(seed))
	f := dqbf.New()
	for i := 1; i <= nUniv; i++ {
		f.AddUniversal(cnf.Var(i))
	}
	for i := 0; i < nExist; i++ {
		y := cnf.Var(nUniv + i + 1)
		var deps []cnf.Var
		for j, x := range f.Univ {
			if j%nExist != i { // systematically incomparable sets
				deps = append(deps, x)
			}
		}
		f.AddExistential(y, deps...)
	}
	n := nUniv + nExist
	for i := 0; i < 6*n; i++ {
		c := make(cnf.Clause, 0, 3)
		for len(c) < 3 {
			l := cnf.NewLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0)
			if !c.HasVar(l.Var()) {
				c = append(c, l)
			}
		}
		f.Matrix.Clauses = append(f.Matrix.Clauses, c)
	}
	return f
}

func TestTimeout(t *testing.T) {
	opt := DefaultOptions()
	opt.Preprocess = false
	opt.DetectGates = false
	opt.Budget = budget.New(budget.Limits{Timeout: time.Nanosecond})
	res := New(opt).Solve(problem.FromDQBF(hardInstance(1, 6, 3)))
	if res.Status != Timeout {
		t.Fatalf("status = %v, want timeout", res.Status)
	}
}

func TestMemout(t *testing.T) {
	opt := DefaultOptions()
	opt.Preprocess = false
	opt.DetectGates = false
	opt.Budget = budget.New(budget.Limits{Nodes: 16})
	res := New(opt).Solve(problem.FromDQBF(hardInstance(2, 6, 3)))
	if res.Status != Memout {
		t.Fatalf("status = %v, want memout", res.Status)
	}
}

func TestStatsInstrumentation(t *testing.T) {
	// Preprocessing solves Example 1 outright (the equivalences y1≡x1,
	// y2≡x2 empty the matrix); verify that path first.
	res := New(DefaultOptions()).Solve(problem.FromDQBF(paperExample1()))
	if res.Stats.DecidedBy != "hqs/preprocess" || !res.Sat {
		t.Fatalf("Example 1 should be decided by preprocessing, got %+v", res.Stats)
	}
	// Without preprocessing the full pipeline runs: MaxSAT selection must
	// pick exactly one universal, and AIG stats must be tracked.
	opt := DefaultOptions()
	opt.Preprocess = false
	opt.DetectGates = false
	res = New(opt).Solve(problem.FromDQBF(paperExample1()))
	st := res.Stats
	if res.Status != Solved || !res.Sat {
		t.Fatalf("got %v/%v", res.Status, res.Sat)
	}
	if st.TotalTime <= 0 {
		t.Error("TotalTime not recorded")
	}
	if len(st.ElimSet) != 1 {
		t.Errorf("Example 1 needs exactly one universal eliminated, got %v", st.ElimSet)
	}
	if st.DecidedBy == "" {
		t.Error("DecidedBy not set")
	}
	if st.PeakAIGNodes == 0 {
		t.Error("PeakAIGNodes not tracked")
	}
}

func TestEmptyAndTrivialFormulas(t *testing.T) {
	// Empty matrix: satisfied.
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddExistential(2, 1)
	res := New(DefaultOptions()).Solve(problem.FromDQBF(f))
	if !res.Sat {
		t.Fatal("empty matrix must be SAT")
	}
	// Empty clause: unsatisfied.
	f2 := dqbf.New()
	f2.AddExistential(1)
	f2.Matrix.Clauses = append(f2.Matrix.Clauses, cnf.Clause{})
	res2 := New(DefaultOptions()).Solve(problem.FromDQBF(f2))
	if res2.Sat {
		t.Fatal("empty clause must be UNSAT")
	}
	// No quantifiers, trivially satisfiable matrix handled via free-var-less
	// formula with one clause over an existential.
	f3 := dqbf.New()
	f3.AddExistential(1)
	f3.Matrix.AddDimacsClause(1)
	if res := New(DefaultOptions()).Solve(problem.FromDQBF(f3)); !res.Sat {
		t.Fatal("∃y: y must be SAT")
	}
}

func TestPureSATInstances(t *testing.T) {
	// DQBF with no universals degenerates to SAT.
	rng := rand.New(rand.NewSource(55))
	for iter := 0; iter < 30; iter++ {
		f := dqbf.New()
		n := 3 + rng.Intn(5)
		for i := 1; i <= n; i++ {
			f.AddExistential(cnf.Var(i))
		}
		for i := 0; i < 4+rng.Intn(12); i++ {
			k := 1 + rng.Intn(3)
			c := make(cnf.Clause, 0, k)
			for j := 0; j < k; j++ {
				c = append(c, cnf.NewLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0))
			}
			f.Matrix.Clauses = append(f.Matrix.Clauses, c)
		}
		want, err := dqbf.BruteForce(f)
		if err != nil {
			t.Fatal(err)
		}
		res := New(DefaultOptions()).Solve(problem.FromDQBF(f))
		if res.Status != Solved || res.Sat != want {
			t.Fatalf("iter %d: got %v/%v want %v", iter, res.Status, res.Sat, want)
		}
	}
}

func TestInputNotModified(t *testing.T) {
	f := paperExample1()
	before := f.String() + f.Matrix.Clauses[0].String()
	New(DefaultOptions()).Solve(problem.FromDQBF(f))
	after := f.String() + f.Matrix.Clauses[0].String()
	if before != after {
		t.Fatal("Solve modified its input")
	}
}

func TestEliminateUniversalSemantics(t *testing.T) {
	// Theorem 1 check: eliminating a universal from a random DQBF must
	// preserve the brute-force verdict.
	rng := rand.New(rand.NewSource(11))
	for iter := 0; iter < 80; iter++ {
		f := randomDQBF(rng, 2, 2, 2+rng.Intn(8))
		want, err := dqbf.BruteForce(f)
		if err != nil {
			t.Fatal(err)
		}
		// Apply Theorem 1 manually to universal variable 1, then re-decide
		// with the default solver.
		g := aig.New()
		m := buildMatrix(g, f.Matrix, nil)
		work := f.Clone()
		s := New(DefaultOptions())
		next := cnf.Var(f.Matrix.NumVars + 1)
		m2, _ := s.eliminateUniversal(g, work, m, 1, &next, nil)
		// Decide the reduced formula via the QBF/HQS machinery on the AIG:
		// rebuild a CNF via Tseitin and solve as DQBF.
		got := solveAIGAsDQBF(t, g, m2, work)
		if got != want {
			t.Fatalf("iter %d: after Thm.1 got %v want %v (clauses %v)",
				iter, got, want, f.Matrix.Clauses)
		}
	}
}

// solveAIGAsDQBF decides a DQBF whose matrix is an AIG by Tseitin-encoding
// the matrix back to CNF with fresh innermost existentials.
func solveAIGAsDQBF(t *testing.T, g *aig.Graph, m aig.Ref, work *dqbf.Formula) bool {
	t.Helper()
	form, lit := g.ToFormula(m, cnf.Var(work.Matrix.NumVars))
	nf := dqbf.New()
	for _, x := range work.Univ {
		nf.AddUniversal(x)
	}
	for _, y := range work.Exist {
		nf.AddExistential(y, work.Deps[y].Vars()...)
	}
	// Tseitin auxiliaries depend on everything.
	quant := dqbf.NewVarSet(append(nf.Univ, nf.Exist...)...)
	for v := cnf.Var(1); int(v) <= form.NumVars; v++ {
		if !quant.Has(v) {
			nf.AddExistential(v, nf.Univ...)
		}
	}
	nf.Matrix = form
	nf.Matrix.AddClause(lit)
	res := New(DefaultOptions()).Solve(problem.FromDQBF(nf))
	if res.Status != Solved {
		t.Fatalf("nested solve status %v", res.Status)
	}
	return res.Sat
}

// TestElimSetSpuriousUnknownCancels injects one spurious Unknown into the
// elimination-set MaxSAT of a cyclic instance, at the MaxSAT seam and at
// the SAT seam below it. Either must unwind as a cancellation, the
// pipeline's convention for an injected Unknown, and never panic.
func TestElimSetSpuriousUnknownCancels(t *testing.T) {
	for _, pt := range []faults.Point{faults.SATSolve, faults.MaxSATSolve} {
		plan, err := faults.ParseSpec(string(pt)+":unknown:times=1", 1)
		if err != nil {
			t.Fatal(err)
		}
		opt := DefaultOptions()
		opt.Preprocess = false
		opt.DetectGates = false
		opt.Budget = budget.New(budget.Limits{Faults: plan})
		res := New(opt).Solve(problem.FromDQBF(paperExample1()))
		if res.Status != Cancelled {
			t.Fatalf("%s: status %v, want %v", pt, res.Status, Cancelled)
		}
		if plan.Fires(pt) != 1 {
			t.Fatalf("%s: the fault never fired", pt)
		}
	}
}
