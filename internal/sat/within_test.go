package sat

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// andGraph is a Tseitin-encoded AND-graph built by hand, the clause shape
// aig.CNFBuilder feeds an oracle solver (this package cannot import aig).
// Variable 1 is the constant true, fixed by a unit clause; the next nIn
// variables are inputs; every later variable is the AND of two edges over
// earlier variables.
type andGraph struct {
	nIn     int
	fanin   [][2]cnf.Lit // by variable; zero for the constant and the inputs
	clauses []cnf.Clause
}

// newAndGraph builds an AND-graph whose fanins and signs are drawn from
// pick, which returns a value in [0, n).
func newAndGraph(pick func(n int) int, nIn, nGates int) *andGraph {
	g := &andGraph{nIn: nIn, fanin: make([][2]cnf.Lit, 2+nIn)}
	g.clauses = append(g.clauses, cnf.Clause{cnf.PosLit(1)})
	for i := 0; i < nGates; i++ {
		v := cnf.Var(len(g.fanin))
		var f [2]cnf.Lit
		for j := range f {
			f[j] = cnf.NewLit(cnf.Var(1+pick(int(v)-1)), pick(2) == 1)
		}
		g.fanin = append(g.fanin, f)
		gl := cnf.PosLit(v)
		g.clauses = append(g.clauses,
			cnf.Clause{gl.Not(), f[0]}, cnf.Clause{gl.Not(), f[1]}, cnf.Clause{gl, f[0].Not(), f[1].Not()})
	}
	return g
}

func (g *andGraph) numVars() int { return len(g.fanin) - 1 }

func (g *andGraph) isGate(v cnf.Var) bool { return int(v) > 1+g.nIn }

// solver returns a fresh solver loaded with g's clauses.
func (g *andGraph) solver() *Solver {
	s := New()
	s.EnsureVars(g.numVars())
	for _, c := range g.clauses {
		s.AddClause(c...)
	}
	return s
}

// cone returns the fanin-closed cone of roots, as a membership vector by
// variable and as a list.
func (g *andGraph) cone(roots []cnf.Var) ([]bool, []cnf.Var) {
	in := make([]bool, len(g.fanin))
	var vars []cnf.Var
	stack := append([]cnf.Var(nil), roots...)
	for len(stack) > 0 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if in[v] {
			continue
		}
		in[v] = true
		vars = append(vars, v)
		if g.isGate(v) {
			stack = append(stack, g.fanin[v][0].Var(), g.fanin[v][1].Var())
		}
	}
	return in, vars
}

// eval returns every variable's value when the inputs take their values
// from input.
func (g *andGraph) eval(input func(cnf.Var) bool) cnf.Assignment {
	val := cnf.NewAssignment(g.numVars())
	val.Set(1, true)
	for v := cnf.Var(2); int(v) <= g.numVars(); v++ {
		if !g.isGate(v) {
			val.Set(v, input(v))
			continue
		}
		val.Set(v, val.Lit(g.fanin[v][0]) && val.Lit(g.fanin[v][1]))
	}
	return val
}

// randomLits draws 1–3 literals over vars.
func randomLits(pick func(int) int, vars []cnf.Var) []cnf.Lit {
	lits := make([]cnf.Lit, 1+pick(3))
	for i := range lits {
		lits[i] = cnf.NewLit(vars[pick(len(vars))], pick(2) == 1)
	}
	return lits
}

// levelZeroComplete reports a clause of s that the level-0 assignment
// leaves unit or false, or "" if there is none: propagation at level 0
// must be complete, scoped calls included.
func levelZeroComplete(s *Solver) string {
	if !s.ok {
		return ""
	}
	for c := cref(0); int(c) < s.ca.words(); c = s.ca.next(c) {
		if s.ca.deleted(c) {
			continue
		}
		open := 0
		for _, l := range s.ca.lits(c) {
			switch s.value(l) {
			case lTrue:
				open = 2
			case lUndef:
				open++
			}
		}
		if open < 2 {
			return fmt.Sprintf("clause %v has %d open literals at level 0", s.ca.lits(c), open)
		}
	}
	return ""
}

// checkSolveWithin runs nQueries random queries over one random AND-graph
// on a solver that interleaves scoped calls (SolveWithin over the cone of
// random roots, assumptions inside it) with unscoped ones. Every verdict
// must equal a fresh solver's, and every call must leave level-0
// propagation complete. A scoped Sat must satisfy every clause inside the
// scope, and the gates evaluated from its input values must reproduce its
// scope values and satisfy the assumptions. It returns how many scoped
// calls followed an unscoped call that fixed new variables at level 0.
func checkSolveWithin(t *testing.T, pick func(int) int, nIn, nGates, nQueries int) (afterUnits int) {
	t.Helper()
	g := newAndGraph(pick, nIn, nGates)
	all := make([]cnf.Var, g.numVars())
	for i := range all {
		all[i] = cnf.Var(i + 1)
	}
	s, unscoped := g.solver(), g.solver()
	grew := false
	for q := 0; q < nQueries; q++ {
		if pick(3) == 0 {
			assumps := randomLits(pick, all)
			want := g.solver().SolveAssuming(assumps)
			units := len(s.trail)
			if got := s.SolveAssuming(assumps); got != want {
				t.Fatalf("query %d: interleaved unscoped call on %v = %v; fresh solver says %v", q, assumps, got, want)
			}
			grew = grew || len(s.trail) > units
			if err := levelZeroComplete(s); err != "" {
				t.Fatalf("query %d: after an unscoped call on %v: %s", q, assumps, err)
			}
		}
		roots := make([]cnf.Var, 1+pick(2))
		for i := range roots {
			roots[i] = all[pick(len(all))]
		}
		in, scope := g.cone(roots)
		assumps := randomLits(pick, scope)
		want := g.solver().SolveAssuming(assumps)
		if got := unscoped.SolveAssuming(assumps); got != want {
			t.Fatalf("query %d: unscoped %v = %v; fresh solver says %v", q, assumps, got, want)
		}
		got, err := s.SolveWithin(assumps, scope)
		if err != nil || got != want {
			t.Fatalf("query %d: SolveWithin(%v, %v) = %v, %v; fresh solver says %v", q, assumps, scope, got, err, want)
		}
		if grew {
			afterUnits++
			grew = false
		}
		if err := levelZeroComplete(s); err != "" {
			t.Fatalf("query %d: after SolveWithin(%v, %v): %s", q, assumps, scope, err)
		}
		if s.decisionLevel() != 0 || s.scoped || !s.scopeHeap.empty() {
			t.Fatalf("query %d: SolveWithin left level %d, scoped=%v, %d heap entries", q, s.decisionLevel(), s.scoped, len(s.scopeHeap.data))
		}
		for v, b := range s.inScope {
			if b {
				t.Fatalf("query %d: SolveWithin left var %d marked in scope", q, v)
			}
		}
		if got != Sat {
			continue
		}
		m := s.Model()
	clauses:
		for _, c := range g.clauses {
			for _, l := range c {
				if !in[l.Var()] || m.Lit(l) {
					continue clauses
				}
			}
			t.Fatalf("query %d: scoped model violates clause %v inside scope %v", q, c, scope)
		}
		val := g.eval(m.Get)
		for _, v := range scope {
			if m.Get(v) != val.Get(v) {
				t.Fatalf("query %d: scoped model gives var %d %v; its inputs evaluate it to %v", q, v, m.Get(v), val.Get(v))
			}
		}
		for _, l := range assumps {
			if !val.Lit(l) {
				t.Fatalf("query %d: gates evaluated from the scoped model's inputs falsify assumption %v of %v", q, l, assumps)
			}
		}
	}
	return afterUnits
}

// TestSolveWithinAgrees holds the scoped solve to the unscoped one and a
// fresh solver on random Tseitin AND-graphs, scoped and unscoped calls
// interleaved on one solver.
func TestSolveWithinAgrees(t *testing.T) {
	rng := rand.New(rand.NewSource(30))
	afterUnits := 0
	for i := 0; i < 400; i++ {
		afterUnits += checkSolveWithin(t, rng.Intn, 2+rng.Intn(9), rng.Intn(80), 12)
	}
	if afterUnits == 0 {
		t.Fatal("no scoped call followed an unscoped call that fixed new level-0 variables")
	}
}

// FuzzSolveWithin runs the checks of TestSolveWithinAgrees on an AND-graph
// and queries drawn from the fuzzer's bytes, read cyclically.
func FuzzSolveWithin(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{3, 12, 5, 7, 1, 0, 9, 4, 2, 8})
	f.Add([]byte{1, 30, 8, 200, 17, 3, 66, 5, 91, 120, 4, 33, 250})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 512 {
			return
		}
		i := 0
		pick := func(n int) int {
			b := data[i%len(data)]
			i++
			return int(b) % n
		}
		checkSolveWithin(t, pick, 1+pick(6), pick(48), 1+pick(16))
	})
}
