package qbf

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/aig"
	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/pipeline"
)

// buildMatrix converts a CNF into an AIG over graph g.
func buildMatrix(g *aig.Graph, f *cnf.Formula) aig.Ref {
	clauses := make([]aig.Ref, len(f.Clauses))
	for i, c := range f.Clauses {
		lits := make([]aig.Ref, len(c))
		for j, l := range c {
			lits[j] = g.Input(l.Var()).XorSign(l.Neg())
		}
		clauses[i] = g.OrN(lits...)
	}
	return g.AndN(clauses...)
}

func solveQBF(t *testing.T, prefix []dqbf.Block, matrix *cnf.Formula, opt Options) bool {
	t.Helper()
	g := aig.New()
	s := New(g, opt)
	res, err := s.Solve(prefix, buildMatrix(g, matrix))
	if err != nil {
		t.Fatal(err)
	}
	return res
}

func TestForallExistsXnor(t *testing.T) {
	// ∀x ∃y : y↔x — true.
	m := cnf.NewFormula(2)
	m.AddDimacsClause(-2, 1)
	m.AddDimacsClause(2, -1)
	prefix := []dqbf.Block{{Univ: []cnf.Var{1}, Exist: []cnf.Var{2}}}
	if !solveQBF(t, prefix, m, DefaultOptions()) {
		t.Fatal("∀x∃y. y↔x must be true")
	}
}

func TestExistsForallXnor(t *testing.T) {
	// ∃y ∀x : y↔x — false.
	m := cnf.NewFormula(2)
	m.AddDimacsClause(-2, 1)
	m.AddDimacsClause(2, -1)
	prefix := []dqbf.Block{{Exist: []cnf.Var{2}}, {Univ: []cnf.Var{1}}}
	if solveQBF(t, prefix, m, DefaultOptions()) {
		t.Fatal("∃y∀x. y↔x must be false")
	}
}

func TestPurelyExistentialSAT(t *testing.T) {
	m := cnf.NewFormula(3)
	m.AddDimacsClause(1, 2)
	m.AddDimacsClause(-1, 3)
	prefix := []dqbf.Block{{Exist: []cnf.Var{1, 2, 3}}}
	if !solveQBF(t, prefix, m, DefaultOptions()) {
		t.Fatal("satisfiable CNF under ∃ prefix must be true")
	}
	m2 := cnf.NewFormula(1)
	m2.AddDimacsClause(1)
	m2.AddDimacsClause(-1)
	if solveQBF(t, []dqbf.Block{{Exist: []cnf.Var{1}}}, m2, DefaultOptions()) {
		t.Fatal("unsatisfiable CNF must be false")
	}
}

func TestPurelyUniversal(t *testing.T) {
	// ∀x1∀x2 : x1∨x2 — false.
	m := cnf.NewFormula(2)
	m.AddDimacsClause(1, 2)
	prefix := []dqbf.Block{{Univ: []cnf.Var{1, 2}}}
	if solveQBF(t, prefix, m, DefaultOptions()) {
		t.Fatal("∀x1∀x2. x1∨x2 must be false")
	}
	// ∀x : x∨¬x — true.
	m2 := cnf.NewFormula(1)
	m2.AddDimacsClause(1, -1)
	if !solveQBF(t, []dqbf.Block{{Univ: []cnf.Var{1}}}, m2, DefaultOptions()) {
		t.Fatal("tautology must be true")
	}
}

func TestTwoAlternations(t *testing.T) {
	// ∀x1 ∃y1 ∀x2 ∃y2 : (y1↔x1) ∧ (y2 ↔ x1⊕x2) — true.
	m := cnf.NewFormula(4)
	// y1=2, y2=4, x1=1, x2=3.
	m.AddDimacsClause(-2, 1)
	m.AddDimacsClause(2, -1)
	// y2 ↔ x1⊕x2: (¬y2∨x1∨x2)(¬y2∨¬x1∨¬x2)(y2∨x1∨¬x2)(y2∨¬x1∨x2)
	m.AddDimacsClause(-4, 1, 3)
	m.AddDimacsClause(-4, -1, -3)
	m.AddDimacsClause(4, 1, -3)
	m.AddDimacsClause(4, -1, 3)
	prefix := []dqbf.Block{
		{Univ: []cnf.Var{1}, Exist: []cnf.Var{2}},
		{Univ: []cnf.Var{3}, Exist: []cnf.Var{4}},
	}
	if !solveQBF(t, prefix, m, DefaultOptions()) {
		t.Fatal("must be true")
	}
	// Swap: ∀x1 ∃y2 ∀x2 : y2 ↔ x1⊕x2 — false (y2 cannot see x2).
	m2 := cnf.NewFormula(4)
	m2.AddDimacsClause(-4, 1, 3)
	m2.AddDimacsClause(-4, -1, -3)
	m2.AddDimacsClause(4, 1, -3)
	m2.AddDimacsClause(4, -1, 3)
	prefix2 := []dqbf.Block{
		{Univ: []cnf.Var{1}, Exist: []cnf.Var{4}},
		{Univ: []cnf.Var{3}},
	}
	if solveQBF(t, prefix2, m2, DefaultOptions()) {
		t.Fatal("must be false")
	}
}

// randomQBF builds a random QBF as a DQBF with chain dependencies so that we
// can use dqbf.BruteForce as ground truth.
func randomQBF(rng *rand.Rand, nUniv, nExist, nClauses int) (*dqbf.Formula, []dqbf.Block) {
	f := dqbf.New()
	for i := 1; i <= nUniv; i++ {
		f.AddUniversal(cnf.Var(i))
	}
	cur := dqbf.NewVarSet()
	for i := 0; i < nExist; i++ {
		for _, x := range f.Univ {
			if !cur.Has(x) && rng.Intn(3) == 0 {
				cur.Add(x)
			}
		}
		y := cnf.Var(nUniv + i + 1)
		f.Exist = append(f.Exist, y)
		f.Deps[y] = cur.Clone()
		if int(y) > f.Matrix.NumVars {
			f.Matrix.NumVars = int(y)
		}
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
	return f, dqbf.Linearize(f)
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	for _, opt := range []Options{
		DefaultOptions(),
		{UnitPure: false, SweepThreshold: 0, FinalSAT: false},
		{UnitPure: true, SweepThreshold: 1, SweepOptions: aig.DefaultSweepOptions(), FinalSAT: false},
	} {
		for iter := 0; iter < 120; iter++ {
			f, prefix := randomQBF(rng, 1+rng.Intn(3), 1+rng.Intn(3), 2+rng.Intn(8))
			want, err := dqbf.BruteForce(f)
			if err != nil {
				t.Fatal(err)
			}
			g := aig.New()
			s := New(g, opt)
			got, err := s.Solve(prefix, buildMatrix(g, f.Matrix))
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("opt %+v iter %d: got %v want %v\nformula: %v\nclauses: %v",
					opt, iter, got, want, f, f.Matrix.Clauses)
			}
		}
	}
}

func TestConstantMatrices(t *testing.T) {
	g := aig.New()
	s := New(g, DefaultOptions())
	prefix := []dqbf.Block{{Univ: []cnf.Var{1}, Exist: []cnf.Var{2}}}
	if res, err := s.Solve(prefix, aig.True); err != nil || !res {
		t.Fatal("constant true matrix must be true")
	}
	if res, err := s.Solve(prefix, aig.False); err != nil || res {
		t.Fatal("constant false matrix must be false")
	}
}

func TestNodeLimitReportedAsError(t *testing.T) {
	g := aig.New()
	f := cnf.NewFormula(0)
	// A parity constraint chain forces cofactor blowup relative to a tiny
	// node budget.
	n := 14
	for i := 1; i+2 <= n; i += 2 {
		f.AddDimacsClause(i, i+1, i+2)
		f.AddDimacsClause(-i, -(i + 1), i+2)
		f.AddDimacsClause(-i, i+1, -(i + 2))
		f.AddDimacsClause(i, -(i + 1), -(i + 2))
	}
	m := buildMatrix(g, f)
	g.NodeLimit = g.NumNodes() + 3
	var univ []cnf.Var
	for i := 1; i <= n; i++ {
		univ = append(univ, cnf.Var(i))
	}
	s := New(g, Options{}) // no sweeping, no unit/pure
	_, err := s.Solve([]dqbf.Block{{Univ: univ}}, m)
	if err == nil {
		t.Fatal("expected node-limit error")
	}
	if _, ok := err.(aig.ErrNodeLimit); !ok {
		t.Fatalf("unexpected error type %T", err)
	}
}

func TestStatsPopulated(t *testing.T) {
	m := cnf.NewFormula(4)
	m.AddDimacsClause(-2, 1)
	m.AddDimacsClause(2, -1)
	m.AddDimacsClause(3, 4)
	g := aig.New()
	s := New(g, Options{UnitPure: true, FinalSAT: false})
	prefix := []dqbf.Block{{Univ: []cnf.Var{1}, Exist: []cnf.Var{2, 3, 4}}}
	res, err := s.Solve(prefix, buildMatrix(g, m))
	if err != nil || !res {
		t.Fatalf("res=%v err=%v", res, err)
	}
	if s.Stat.PureElims == 0 && s.Stat.UnitElims == 0 && s.Stat.ExistElims == 0 && s.Stat.UnivElims == 0 {
		t.Fatal("no eliminations recorded")
	}
}

func TestDeadline(t *testing.T) {
	// A budget whose deadline has already passed must abort with the
	// pipeline's ErrTimeout.
	f := cnf.NewFormula(0)
	n := 12
	for i := 1; i+2 <= n; i += 2 {
		f.AddDimacsClause(i, i+1, i+2)
		f.AddDimacsClause(-i, -(i + 1), i+2)
		f.AddDimacsClause(-i, i+1, -(i + 2))
		f.AddDimacsClause(i, -(i + 1), -(i + 2))
	}
	g := aig.New()
	m := buildMatrix(g, f)
	var univ []cnf.Var
	for i := 1; i <= n; i++ {
		univ = append(univ, cnf.Var(i))
	}
	s := New(g, Options{Budget: budget.New(budget.Limits{Deadline: time.Now().Add(-time.Second)})})
	_, err := s.Solve([]dqbf.Block{{Univ: univ}}, m)
	if err != pipeline.ErrTimeout {
		t.Fatalf("err = %v, want pipeline.ErrTimeout", err)
	}
}

func TestSolveSearchAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	for iter := 0; iter < 200; iter++ {
		f, prefix := randomQBF(rng, 1+rng.Intn(3), 1+rng.Intn(3), 2+rng.Intn(8))
		want, err := dqbf.BruteForce(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := solveSearch(prefix, f.Matrix)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iter %d: search %v brute %v\n%v\n%v", iter, got, want, f, f.Matrix.Clauses)
		}
	}
}

func TestSolveSearchAgainstEliminationSolver(t *testing.T) {
	// Two independent QBF implementations must agree on larger instances.
	rng := rand.New(rand.NewSource(314))
	for iter := 0; iter < 60; iter++ {
		f, prefix := randomQBF(rng, 2+rng.Intn(4), 2+rng.Intn(4), 4+rng.Intn(16))
		searchRes, err := solveSearch(prefix, f.Matrix)
		if err != nil {
			t.Fatal(err)
		}
		g := aig.New()
		s := New(g, DefaultOptions())
		elimRes, err := s.Solve(prefix, buildMatrix(g, f.Matrix))
		if err != nil {
			t.Fatal(err)
		}
		if searchRes != elimRes {
			t.Fatalf("iter %d: search %v, elimination %v", iter, searchRes, elimRes)
		}
	}
}

func TestSolveSearchValidation(t *testing.T) {
	m := cnf.NewFormula(2)
	m.AddDimacsClause(1, 2)
	if _, err := solveSearch([]dqbf.Block{{Univ: []cnf.Var{1}}}, m); err == nil {
		t.Error("unquantified variable accepted")
	}
	if _, err := solveSearch([]dqbf.Block{
		{Univ: []cnf.Var{1}, Exist: []cnf.Var{2}},
		{Univ: []cnf.Var{1}},
	}, m); err == nil {
		t.Error("doubly quantified variable accepted")
	}
}

func TestSolveSearchUniversalUnit(t *testing.T) {
	// ∀x : (x) — universal forced by a unit clause means false.
	m := cnf.NewFormula(1)
	m.AddDimacsClause(1)
	got, err := solveSearch([]dqbf.Block{{Univ: []cnf.Var{1}}}, m)
	if err != nil || got {
		t.Fatalf("got %v %v, want false", got, err)
	}
}
