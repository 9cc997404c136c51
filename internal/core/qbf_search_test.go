package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/problem"
)

// solveSearch decides a QBF given by a linear prefix and a CNF matrix with a
// simple search-based procedure in the QDPLL tradition (DepQBF's ancestor,
// without clause/cube learning): variables are branched in prefix order,
// with unit propagation and universal reduction after every assignment;
// a universal branch must succeed for both values, an existential branch for
// at least one. It is exponential without learning and is the tests'
// independent referee for the linear phase — the two implementations share
// no code beyond the CNF types.
func solveSearch(prefix []dqbf.Block, matrix *cnf.Formula) (bool, error) {
	var order []cnf.Var
	univ := make(map[cnf.Var]bool)
	seen := make(map[cnf.Var]bool)
	for _, b := range prefix {
		for _, x := range b.Univ {
			if seen[x] {
				return false, fmt.Errorf("qbf: variable %d quantified twice", x)
			}
			seen[x] = true
			univ[x] = true
			order = append(order, x)
		}
		for _, y := range b.Exist {
			if seen[y] {
				return false, fmt.Errorf("qbf: variable %d quantified twice", y)
			}
			seen[y] = true
			order = append(order, y)
		}
	}
	for _, c := range matrix.Clauses {
		for _, l := range c {
			if !seen[l.Var()] {
				return false, fmt.Errorf("qbf: unquantified matrix variable %d", l.Var())
			}
		}
	}
	s := &searcher{
		matrix: matrix.Clauses,
		order:  order,
		univ:   univ,
		assign: make(map[cnf.Var]bool),
	}
	return s.search(0), nil
}

type searcher struct {
	matrix []cnf.Clause
	order  []cnf.Var
	univ   map[cnf.Var]bool
	assign map[cnf.Var]bool
}

// status evaluates the matrix under the current partial assignment:
// -1 falsified clause exists, +1 all clauses satisfied, 0 undecided.
func (s *searcher) status() int {
	all := 1
	for _, c := range s.matrix {
		sat, undef := false, false
		for _, l := range c {
			v, ok := s.assign[l.Var()]
			if !ok {
				undef = true
				continue
			}
			if v != l.Neg() {
				sat = true
				break
			}
		}
		if sat {
			continue
		}
		if !undef {
			return -1
		}
		all = 0
	}
	return all
}

// search decides the formula from position i of the prefix order.
func (s *searcher) search(i int) bool {
	switch s.status() {
	case -1:
		return false
	case 1:
		return true
	}
	if i >= len(s.order) {
		// No unassigned prefix variables but still undecided clauses cannot
		// happen: every clause variable is quantified.
		return s.status() == 1
	}
	v := s.order[i]
	if _, done := s.assign[v]; done {
		return s.search(i + 1)
	}
	// Cheap lookahead: forced value by a unit clause containing v as the
	// only unassigned literal, respecting quantifier semantics.
	if forced, val, conflict := s.unitOn(v); conflict {
		return false
	} else if forced {
		if s.univ[v] {
			// Universal forced to one value means the other value falsifies
			// the matrix: the formula is false here.
			return false
		}
		s.assign[v] = val
		ok := s.search(i + 1)
		delete(s.assign, v)
		return ok
	}
	try := func(val bool) bool {
		s.assign[v] = val
		ok := s.search(i + 1)
		delete(s.assign, v)
		return ok
	}
	if s.univ[v] {
		return try(false) && try(true)
	}
	return try(false) || try(true)
}

// unitOn reports whether some clause forces variable v: it returns
// (forced, value, conflict) where conflict means two clauses force opposite
// values.
func (s *searcher) unitOn(v cnf.Var) (bool, bool, bool) {
	forced := false
	var val bool
	for _, c := range s.matrix {
		sat := false
		unassigned := 0
		var lit cnf.Lit
		for _, l := range c {
			a, ok := s.assign[l.Var()]
			if !ok {
				unassigned++
				lit = l
				continue
			}
			if a != l.Neg() {
				sat = true
				break
			}
		}
		if sat || unassigned != 1 || lit.Var() != v {
			continue
		}
		want := !lit.Neg()
		if forced && val != want {
			return false, false, true
		}
		forced, val = true, want
	}
	return forced, val, false
}

func TestSolveSearchAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(313))
	for iter := 0; iter < 200; iter++ {
		f := randomQBF(rng, 1+rng.Intn(3), 1+rng.Intn(3), 2+rng.Intn(8))
		want, err := dqbf.BruteForce(f)
		if err != nil {
			t.Fatal(err)
		}
		got, err := solveSearch(dqbf.Linearize(f), f.Matrix)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iter %d: search %v brute %v\n%v\n%v", iter, got, want, f, f.Matrix.Clauses)
		}
	}
}

// TestSolveSearchAgainstEliminationSolver checks that the search referee
// and core.Solve agree on QBFs beyond brute-force reach, under the default
// configuration and under the one that leaves the most to the linear phase.
func TestSolveSearchAgainstEliminationSolver(t *testing.T) {
	rng := rand.New(rand.NewSource(314))
	for iter := 0; iter < 60; iter++ {
		f := randomQBF(rng, 2+rng.Intn(4), 2+rng.Intn(4), 4+rng.Intn(16))
		searchRes, err := solveSearch(dqbf.Linearize(f), f.Matrix)
		if err != nil {
			t.Fatal(err)
		}
		for _, opt := range []core.Options{core.DefaultOptions(), linearOptions()} {
			res := core.New(opt).Solve(&problem.Problem{Kind: problem.KindQBF, Formula: f})
			if res.Status != core.Solved || res.Sat != searchRes {
				t.Fatalf("iter %d: search %v, elimination %v/%v", iter, searchRes, res.Status, res.Sat)
			}
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
