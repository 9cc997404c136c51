package sat

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// bruteForceSat decides satisfiability of f by enumerating all assignments.
func bruteForceSat(f *cnf.Formula) bool {
	n := f.NumVars
	if n > 20 {
		panic("bruteForceSat: too many variables")
	}
	a := cnf.NewAssignment(n)
	for bits := 0; bits < 1<<n; bits++ {
		for v := 1; v <= n; v++ {
			a.Set(cnf.Var(v), bits&(1<<(v-1)) != 0)
		}
		if f.Eval(a) {
			return true
		}
	}
	return false
}

func lit(d int) cnf.Lit { return cnf.LitFromDimacs(d) }

// status drops the error of a Solve call for tests that only need the
// verdict.
func status(st Status, _ error) Status { return st }

// addFormula adds all clauses of f to s, allocating variables as needed. It
// returns false once the clause set is unsatisfiable at level 0.
func addFormula(s *Solver, f *cnf.Formula) bool {
	s.EnsureVars(f.NumVars)
	for _, c := range f.Clauses {
		if !s.AddClause(c...) {
			return false
		}
	}
	return s.ok
}

func TestTrivialSat(t *testing.T) {
	s := New()
	s.EnsureVars(2)
	s.AddClause(lit(1), lit(2))
	if status(s.Solve(nil, nil)) != Sat {
		t.Fatal("expected SAT")
	}
	m := s.Model()
	if !m.Lit(lit(1)) && !m.Lit(lit(2)) {
		t.Fatal("model does not satisfy clause")
	}
}

func TestTrivialUnsat(t *testing.T) {
	s := New()
	s.AddClause(lit(1))
	if s.AddClause(lit(-1)) {
		t.Fatal("AddClause should detect conflict")
	}
	if status(s.Solve(nil, nil)) != Unsat {
		t.Fatal("expected UNSAT")
	}
}

func TestEmptyClauseUnsat(t *testing.T) {
	s := New()
	if s.AddClause() {
		t.Fatal("empty clause should yield false")
	}
	if status(s.Solve(nil, nil)) != Unsat {
		t.Fatal("expected UNSAT")
	}
}

func TestNoClausesSat(t *testing.T) {
	s := New()
	s.EnsureVars(3)
	if status(s.Solve(nil, nil)) != Sat {
		t.Fatal("empty formula should be SAT")
	}
}

func TestTautologyIgnored(t *testing.T) {
	s := New()
	s.AddClause(lit(1), lit(-1))
	s.AddClause(lit(-2))
	if status(s.Solve(nil, nil)) != Sat {
		t.Fatal("expected SAT")
	}
	if s.Model().Get(2) {
		t.Fatal("variable 2 must be false")
	}
}

func TestPigeonhole(t *testing.T) {
	// PHP(n+1, n): n+1 pigeons in n holes — classically UNSAT.
	for n := 2; n <= 5; n++ {
		s := New()
		varOf := func(p, h int) cnf.Lit { return cnf.PosLit(cnf.Var(p*n + h + 1)) }
		for p := 0; p <= n; p++ {
			c := make([]cnf.Lit, n)
			for h := 0; h < n; h++ {
				c[h] = varOf(p, h)
			}
			s.AddClause(c...)
		}
		for h := 0; h < n; h++ {
			for p1 := 0; p1 <= n; p1++ {
				for p2 := p1 + 1; p2 <= n; p2++ {
					s.AddClause(varOf(p1, h).Not(), varOf(p2, h).Not())
				}
			}
		}
		if status(s.Solve(nil, nil)) != Unsat {
			t.Fatalf("PHP(%d,%d) must be UNSAT", n+1, n)
		}
	}
}

func TestGraphColoringSat(t *testing.T) {
	// 3-color a 5-cycle (chromatic number 3): SAT.
	s := New()
	varOf := func(node, col int) cnf.Lit { return cnf.PosLit(cnf.Var(node*3 + col + 1)) }
	for v := 0; v < 5; v++ {
		s.AddClause(varOf(v, 0), varOf(v, 1), varOf(v, 2))
		for c1 := 0; c1 < 3; c1++ {
			for c2 := c1 + 1; c2 < 3; c2++ {
				s.AddClause(varOf(v, c1).Not(), varOf(v, c2).Not())
			}
		}
	}
	for v := 0; v < 5; v++ {
		u := (v + 1) % 5
		for c := 0; c < 3; c++ {
			s.AddClause(varOf(v, c).Not(), varOf(u, c).Not())
		}
	}
	if status(s.Solve(nil, nil)) != Sat {
		t.Fatal("C5 is 3-colorable")
	}
	// 2-coloring of a 5-cycle: UNSAT (odd cycle).
	s2 := New()
	varOf2 := func(node int) cnf.Lit { return cnf.PosLit(cnf.Var(node + 1)) }
	for v := 0; v < 5; v++ {
		u := (v + 1) % 5
		s2.AddClause(varOf2(v), varOf2(u))
		s2.AddClause(varOf2(v).Not(), varOf2(u).Not())
	}
	if status(s2.Solve(nil, nil)) != Unsat {
		t.Fatal("C5 is not 2-colorable")
	}
}

func randomFormula(rng *rand.Rand, nVars, nClauses, maxLen int) *cnf.Formula {
	f := cnf.NewFormula(nVars)
	for i := 0; i < nClauses; i++ {
		k := 1 + rng.Intn(maxLen)
		c := make(cnf.Clause, 0, k)
		for j := 0; j < k; j++ {
			v := cnf.Var(1 + rng.Intn(nVars))
			c = append(c, cnf.NewLit(v, rng.Intn(2) == 0))
		}
		f.Clauses = append(f.Clauses, c)
	}
	return f
}

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(12345))
	for iter := 0; iter < 400; iter++ {
		nVars := 3 + rng.Intn(8)
		nClauses := 1 + rng.Intn(30)
		f := randomFormula(rng, nVars, nClauses, 4)
		want := bruteForceSat(f)
		s := New()
		if !addFormula(s, f) {
			if want {
				t.Fatalf("iter %d: addFormula says UNSAT, brute force says SAT\n%v", iter, f.Clauses)
			}
			continue
		}
		got := status(s.Solve(nil, nil))
		if (got == Sat) != want {
			t.Fatalf("iter %d: solver=%v brute=%v\n%v", iter, got, want, f.Clauses)
		}
		if got == Sat {
			if !f.Eval(s.Model()) {
				t.Fatalf("iter %d: model does not satisfy formula", iter)
			}
		}
	}
}

func TestAssumptions(t *testing.T) {
	s := New()
	s.EnsureVars(3)
	s.AddClause(lit(1), lit(2))
	s.AddClause(lit(-1), lit(3))
	if status(s.Solve([]cnf.Lit{lit(-2)}, nil)) != Sat {
		t.Fatal("expected SAT under -2")
	}
	m := s.Model()
	if !m.Get(1) || !m.Get(3) || m.Get(2) {
		t.Fatalf("bad model %v", m)
	}
	if status(s.Solve([]cnf.Lit{lit(-2), lit(-1)}, nil)) != Unsat {
		t.Fatal("expected UNSAT under {-2,-1}")
	}
	// Solver must stay usable incrementally.
	if status(s.Solve(nil, nil)) != Sat {
		t.Fatal("expected SAT with no assumptions")
	}
}

func TestFailedAssumptions(t *testing.T) {
	s := New()
	s.EnsureVars(4)
	s.AddClause(lit(-1), lit(-2))
	st := status(s.Solve([]cnf.Lit{lit(4), lit(1), lit(2)}, nil))
	if st != Unsat {
		t.Fatal("expected UNSAT")
	}
	failed := s.FailedAssumptions()
	if len(failed) == 0 {
		t.Fatal("empty failed-assumption set")
	}
	// The failed set must be a subset of the negated assumptions and must not
	// include the irrelevant assumption 4.
	for _, l := range failed {
		d := l.Dimacs()
		if d == -4 {
			t.Fatal("assumption 4 is irrelevant but reported")
		}
		if d != -1 && d != -2 {
			t.Fatalf("unexpected failed literal %d", d)
		}
	}
}

// TestFailedAssumptionsSubset checks conflict-set extraction when the
// conflict runs through a Tseitin-encoded cone: root r ↔ a∧b forces a and b
// when assumed, so assuming r and ¬a fails, and the irrelevant assumption c
// must not appear in the set.
func TestFailedAssumptionsSubset(t *testing.T) {
	s := New()
	a, b, c, r := lit(1), lit(2), lit(3), lit(4)
	s.AddClause(r.Not(), a)
	s.AddClause(r.Not(), b)
	s.AddClause(r, a.Not(), b.Not())

	if st := status(s.Solve([]cnf.Lit{r, c, a.Not()}, nil)); st != Unsat {
		t.Fatalf("query = %v; want Unsat", st)
	}
	failed := s.FailedAssumptions()
	if len(failed) == 0 {
		t.Fatal("empty conflict set")
	}
	for _, l := range failed {
		if l == c.Not() {
			t.Fatalf("irrelevant assumption reported in conflict set %v", failed)
		}
		if l != r.Not() && l != a {
			t.Fatalf("conflict set %v contains literal outside the negated assumptions", failed)
		}
	}
}

// TestScopeRetraction exercises the activation-literal protocol the MaxSAT
// backend runs on one long-lived solver: clauses guarded by ¬act constrain
// only while act is assumed, the top-level unit ¬act retracts them without
// a rebuild, and conflict-set extraction still works after retraction —
// assuming a retracted scope's literal fails and the set names it.
func TestScopeRetraction(t *testing.T) {
	s := New()
	a := cnf.PosLit(s.NewVar())
	act := cnf.PosLit(s.NewVar())
	s.SetPhase(act.Var(), false)
	s.AddClause(a, act.Not())       // scope forces a
	s.AddClause(a.Not(), act.Not()) // ... and ¬a: contradictory inside the scope

	if st := status(s.Solve([]cnf.Lit{act}, nil)); st != Unsat {
		t.Fatalf("query under contradictory scope = %v; want Unsat", st)
	}
	// Without the scope the solver is unconstrained again.
	if st := status(s.Solve([]cnf.Lit{a}, nil)); st != Sat {
		t.Fatalf("query outside scope = %v; want Sat", st)
	}

	s.AddClause(act.Not()) // retract
	if st := status(s.Solve([]cnf.Lit{a.Not()}, nil)); st != Sat {
		t.Fatalf("query after retraction = %v; want Sat", st)
	}

	// act is now false at the top level, so assuming it must fail with act
	// in the extracted set.
	if st := status(s.Solve([]cnf.Lit{act, a}, nil)); st != Unsat {
		t.Fatalf("assuming a retracted scope = %v; want Unsat", st)
	}
	failed := s.FailedAssumptions()
	found := false
	for _, l := range failed {
		if l.Var() == act.Var() {
			found = true
		}
		if l == a.Not() {
			t.Fatalf("conflict set %v blames the satisfiable literal, not the retracted scope", failed)
		}
	}
	if !found {
		t.Fatalf("conflict set %v does not name the retracted scope literal", failed)
	}
}

func TestIncrementalAddAfterSolve(t *testing.T) {
	s := New()
	s.EnsureVars(2)
	s.AddClause(lit(1), lit(2))
	if status(s.Solve(nil, nil)) != Sat {
		t.Fatal("SAT expected")
	}
	s.AddClause(lit(-1))
	s.AddClause(lit(-2))
	if status(s.Solve(nil, nil)) != Unsat {
		t.Fatal("UNSAT expected after strengthening")
	}
}

func TestRandomIncrementalAssumptions(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for iter := 0; iter < 60; iter++ {
		nVars := 4 + rng.Intn(6)
		f := randomFormula(rng, nVars, 3+rng.Intn(15), 3)
		s := New()
		if !addFormula(s, f) {
			continue
		}
		for round := 0; round < 5; round++ {
			// Random assumptions over distinct vars.
			perm := rng.Perm(nVars)
			k := rng.Intn(3)
			var assumps []cnf.Lit
			g := f.Clone()
			for _, vi := range perm[:k] {
				l := cnf.NewLit(cnf.Var(vi+1), rng.Intn(2) == 0)
				assumps = append(assumps, l)
				g.AddClause(l)
			}
			want := bruteForceSat(g)
			got := status(s.Solve(assumps, nil))
			if (got == Sat) != want {
				t.Fatalf("iter %d round %d: got %v want SAT=%v", iter, round, got, want)
			}
		}
	}
}

func TestConflictBudget(t *testing.T) {
	// A hard instance: PHP(7,6) with a tiny conflict budget must hit Unknown.
	n := 6
	s := New()
	varOf := func(p, h int) cnf.Lit { return cnf.PosLit(cnf.Var(p*n + h + 1)) }
	for p := 0; p <= n; p++ {
		c := make([]cnf.Lit, n)
		for h := 0; h < n; h++ {
			c[h] = varOf(p, h)
		}
		s.AddClause(c...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(varOf(p1, h).Not(), varOf(p2, h).Not())
			}
		}
	}
	s.ConflictBudget = 10
	st, err := s.Solve(nil, nil)
	if err != ErrBudget || st != Unknown {
		t.Fatalf("want budget exhaustion, got %v / %v", st, err)
	}
	// Raising the budget must allow completion.
	s.ConflictBudget = 0
	if status(s.Solve(nil, nil)) != Unsat {
		t.Fatal("PHP(7,6) must be UNSAT")
	}
}

func TestLuby(t *testing.T) {
	want := []int64{1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8}
	for i, w := range want {
		if g := luby(int64(i + 1)); g != w {
			t.Fatalf("luby(%d) = %d, want %d", i+1, g, w)
		}
	}
}

func TestStatusString(t *testing.T) {
	if Sat.String() != "SAT" || Unsat.String() != "UNSAT" || Unknown.String() != "UNKNOWN" {
		t.Fatal("Status.String broken")
	}
}

func TestManyUnitClauses(t *testing.T) {
	s := New()
	for v := 1; v <= 200; v++ {
		s.AddClause(cnf.NewLit(cnf.Var(v), v%2 == 0))
	}
	if status(s.Solve(nil, nil)) != Sat {
		t.Fatal("unit-only formula is SAT")
	}
	m := s.Model()
	for v := 1; v <= 200; v++ {
		if m.Get(cnf.Var(v)) != (v%2 != 0) {
			t.Fatalf("var %d has wrong value", v)
		}
	}
}

func TestHeapBasics(t *testing.T) {
	var h varHeap
	act := make([]float64, 10)
	for v := 1; v <= 5; v++ {
		act[v] = float64(v)
		h.insert(cnf.Var(v), act)
	}
	if !h.contains(3) {
		t.Fatal("heap should contain 3")
	}
	if top := h.removeTop(act); top != 5 {
		t.Fatalf("top = %d, want 5", top)
	}
	act[1] = 100
	h.update(1, act)
	if top := h.removeTop(act); top != 1 {
		t.Fatalf("top after update = %d, want 1", top)
	}
	if h.contains(1) {
		t.Fatal("1 removed but still contained")
	}
}

// TestPropagateSelfAppendRewatch is a white-box regression test for the
// watcher-list self-append hazard: if a clause scanned from watches[l] picks a
// new watch whose negation is l itself, the append targets the very slice
// being scanned. If propagate keeps working on a stale snapshot, the appended
// watcher is dropped when the compacted prefix is written back, silently
// losing the clause from the watch lists.
//
// The hazard is unreachable through the public API (the false literal ¬l can
// never be chosen as a new watch while l is assigned), so the state is
// fabricated directly: the clause contains ¬l twice and l is placed on the
// trail without assigning it, which makes ¬l look unassigned during the scan
// and forces a same-literal re-watch.
func TestPropagateSelfAppendRewatch(t *testing.T) {
	s := New()
	s.EnsureVars(2)
	a := cnf.PosLit(1)
	l := cnf.PosLit(2)

	// Attach directly to bypass AddClause normalization (the duplicate ¬l is
	// what creates the re-watch on ¬l).
	s.attachClause([]cnf.Lit{a.Not(), l.Not(), l.Not()}, false)
	if len(s.watches[l]) != 1 {
		t.Fatalf("setup: watches[l] has %d watchers, want 1", len(s.watches[l]))
	}

	s.assign[1] = lTrue          // ¬a is false: the scan must look for a new watch
	s.trail = append(s.trail, l) // scan watches[l] with ¬l still unassigned
	if confl := s.propagate(); confl != crefUndef {
		t.Fatalf("unexpected conflict %d", confl)
	}

	// The re-watch appended {clause, ¬a} to watches[l] mid-scan; it must have
	// survived the copy-back.
	if got := len(s.watches[l]); got != 1 {
		t.Fatalf("watches[l] has %d watchers after self-append, want 1 (watcher lost)", got)
	}
	if blk := s.watches[l][0].blocker; blk != a.Not() {
		t.Fatalf("surviving watcher has blocker %v, want %v", blk, a.Not())
	}
}

// addPHP adds the clauses of the pigeonhole principle PHP(n+1, n).
func addPHP(s *Solver, n int) {
	varOf := func(p, h int) cnf.Lit { return cnf.PosLit(cnf.Var(p*n + h + 1)) }
	for p := 0; p <= n; p++ {
		c := make([]cnf.Lit, n)
		for h := 0; h < n; h++ {
			c[h] = varOf(p, h)
		}
		s.AddClause(c...)
	}
	for h := 0; h < n; h++ {
		for p1 := 0; p1 <= n; p1++ {
			for p2 := p1 + 1; p2 <= n; p2++ {
				s.AddClause(varOf(p1, h).Not(), varOf(p2, h).Not())
			}
		}
	}
}

// TestArenaCompaction drives the solver through enough clause learning and
// database reduction that the arena garbage collector runs, and checks the
// solver stays sound across compactions.
func TestArenaCompaction(t *testing.T) {
	s := New()
	addPHP(s, 7)
	if status(s.Solve(nil, nil)) != Unsat {
		t.Fatal("PHP(8,7) must be UNSAT")
	}
	if s.Stats.Removed == 0 {
		t.Fatal("expected reduceDB to remove learned clauses")
	}
	if s.Stats.Compactions == 0 {
		t.Fatal("expected at least one arena compaction")
	}
	if s.ArenaBytes() <= 0 {
		t.Fatal("arena bytes must be positive")
	}
	// The solver must remain usable after compaction.
	s2 := New()
	addPHP(s2, 6)
	if status(s2.Solve(nil, nil)) != Unsat {
		t.Fatal("PHP(7,6) must be UNSAT")
	}
}

// TestArenaRecord exercises the raw arena record operations.
func TestArenaRecord(t *testing.T) {
	var a arena
	c1 := a.alloc([]cnf.Lit{lit(1), lit(-2), lit(3)}, false)
	c2 := a.alloc([]cnf.Lit{lit(4), lit(5)}, true)
	if a.size(c1) != 3 || a.size(c2) != 2 {
		t.Fatalf("sizes %d/%d, want 3/2", a.size(c1), a.size(c2))
	}
	if a.learnt(c1) || !a.learnt(c2) {
		t.Fatal("learnt flags wrong")
	}
	a.setLBD(c2, 5)
	if a.lbd(c2) != 5 {
		t.Fatalf("lbd = %d, want 5", a.lbd(c2))
	}
	a.setActivity(c2, 2.5)
	if a.activity(c2) != 2.5 {
		t.Fatalf("activity = %v, want 2.5", a.activity(c2))
	}
	got := a.lits(c1)
	want := []cnf.Lit{lit(1), lit(-2), lit(3)}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("lits[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	if a.next(c1) != c2 {
		t.Fatalf("next(c1) = %d, want %d", a.next(c1), c2)
	}
	a.delete(c1)
	if !a.deleted(c1) || a.deleted(c2) {
		t.Fatal("deleted flags wrong")
	}
	if a.wasted != hdrWords+3 {
		t.Fatalf("wasted = %d, want %d", a.wasted, hdrWords+3)
	}
	// Relocate c2 into a fresh arena twice: the second call must reuse the
	// forwarding address.
	var to arena
	r1, r2 := c2, c2
	a.reloc(&r1, &to)
	a.reloc(&r2, &to)
	if r1 != r2 {
		t.Fatalf("forwarded crefs differ: %d vs %d", r1, r2)
	}
	if to.size(r1) != 2 || !to.learnt(r1) || to.lbd(r1) != 5 {
		t.Fatal("relocated clause corrupted")
	}
}

// TestComputeLBDCountsDistinctLevels holds computeLBD to a set-based count
// of the distinct decision levels, across the epoch counter wrapping.
func TestComputeLBDCountsDistinctLevels(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	s := New()
	s.EnsureVars(40)
	for iter := 0; iter < 2000; iter++ {
		if iter == 1000 {
			s.lbdEpoch = ^uint32(0) // the next call wraps to 0
		}
		for v := 1; v <= 40; v++ {
			s.level[v] = rng.Intn(1 + iter%50)
		}
		var lits []cnf.Lit
		levels := map[int]bool{}
		for k := 1 + rng.Intn(12); k > 0; k-- {
			v := cnf.Var(1 + rng.Intn(40))
			lits = append(lits, cnf.NewLit(v, rng.Intn(2) == 0))
			levels[s.level[v]] = true
		}
		if got := s.computeLBD(lits); got != len(levels) {
			t.Fatalf("iter %d: computeLBD = %d, want %d distinct levels", iter, got, len(levels))
		}
	}
}
