package dqbf

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// groundAll grounds f under every universal assignment into one SAT solver
// and returns its verdict: the full expansion's satisfiability.
func groundAll(t testing.TB, f *Formula) bool {
	t.Helper()
	s := sat.New()
	g, err := NewGrounder(f, s.NewVar)
	if err != nil {
		t.Fatal(err)
	}
	a := make([]bool, len(f.Univ))
	for bits := 0; bits < 1<<len(a); bits++ {
		for i := range a {
			a[i] = bits&(1<<i) != 0
		}
		if _, ok := g.Ground(a, func(c []cnf.Lit) bool { return s.AddClause(c...) }); !ok {
			return false
		}
	}
	return s.Solve() == sat.Sat
}

// smallForBruteForce reports whether BruteForce decides f quickly: few
// universals and few Skolem table bits.
func smallForBruteForce(f *Formula) bool {
	bits := 0
	for _, y := range f.Exist {
		d := f.Deps[y].Len()
		if d > 6 {
			return false
		}
		bits += 1 << d
	}
	return bits <= 14 && len(f.Univ) <= 6
}

func TestGroundAllMatchesBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	checked := 0
	for iter := 0; iter < 400; iter++ {
		f := RandomFormula(rng, 1+rng.Intn(6), 1+rng.Intn(3), 1+rng.Intn(14))
		if !smallForBruteForce(f) {
			continue
		}
		want, err := BruteForce(f)
		if err != nil {
			t.Fatal(err)
		}
		checked++
		if got := groundAll(t, f); got != want {
			t.Fatalf("iter %d: full grounding %v, brute force %v\n%v\n%v", iter, got, want, f, f.Matrix.Clauses)
		}
	}
	if checked < 200 {
		t.Fatalf("only %d of 400 formulas within brute-force reach", checked)
	}
}

// TestGroundCopiesFollowProjections grounds random formulas under every
// assignment and reads the copies back from the emitted clauses: a clause a
// universal literal satisfies is counted and not emitted, every other clause
// is emitted with its existential literals in order, and two assignments
// share y's copy exactly when they agree on D_y.
func TestGroundCopiesFollowProjections(t *testing.T) {
	rng := rand.New(rand.NewSource(18))
	for iter := 0; iter < 200; iter++ {
		nUniv := 1 + rng.Intn(6)
		f := RandomFormula(rng, nUniv, 1+rng.Intn(4), 1+rng.Intn(14))
		next := cnf.Var(0)
		g, err := NewGrounder(f, func() cnf.Var { next++; return next })
		if err != nil {
			t.Fatal(err)
		}
		// copyAt[y][bits] is y's copy under assignment bits (0 if unseen).
		copyAt := make(map[cnf.Var][]cnf.Var)
		for _, y := range f.Exist {
			copyAt[y] = make([]cnf.Var, 1<<nUniv)
		}
		a := make([]bool, nUniv)
		for bits := 0; bits < 1<<nUniv; bits++ {
			for i := range a {
				a[i] = bits&(1<<i) != 0
			}
			var emitted [][]cnf.Lit
			skipped, ok := g.Ground(a, func(c []cnf.Lit) bool {
				emitted = append(emitted, append([]cnf.Lit(nil), c...))
				return true
			})
			if !ok {
				t.Fatal("Ground stopped though add accepted every clause")
			}
			wantSkipped := 0
			for _, c := range f.Matrix.Clauses {
				var exist []cnf.Lit
				satisfied := false
				for _, l := range c {
					if v := l.Var(); int(v) <= nUniv {
						satisfied = satisfied || a[v-1] != l.Neg()
					} else {
						exist = append(exist, l)
					}
				}
				if satisfied {
					wantSkipped++
					continue
				}
				if len(emitted) == 0 {
					t.Fatalf("iter %d: unsatisfied clause %v not emitted", iter, c)
				}
				got := emitted[0]
				emitted = emitted[1:]
				if len(got) != len(exist) {
					t.Fatalf("iter %d: clause %v grounded to %v", iter, c, got)
				}
				for i, l := range exist {
					if got[i].Neg() != l.Neg() {
						t.Fatalf("iter %d: clause %v grounded to %v: sign changed", iter, c, got)
					}
					if prev := copyAt[l.Var()][bits]; prev != 0 && prev != got[i].Var() {
						t.Fatalf("iter %d: two copies of %d under one assignment", iter, l.Var())
					}
					copyAt[l.Var()][bits] = got[i].Var()
				}
			}
			if len(emitted) != 0 || skipped != wantSkipped {
				t.Fatalf("iter %d: %d extra clauses emitted, skipped %d, want %d", iter, len(emitted), skipped, wantSkipped)
			}
		}
		owner := make(map[cnf.Var]cnf.Var)
		for _, y := range f.Exist {
			deps := f.Deps[y].Vars()
			proj := func(bits int) string {
				return ProjectionKey(deps, func(d cnf.Var) bool { return bits&(1<<(d-1)) != 0 })
			}
			for b1, c1 := range copyAt[y] {
				if c1 == 0 {
					continue
				}
				if o, ok := owner[c1]; ok && o != y {
					t.Fatalf("iter %d: %d and %d share copy %d", iter, o, y, c1)
				}
				owner[c1] = y
				if v := g.Copies()[Copy{y, proj(b1)}]; v != c1 {
					t.Fatalf("iter %d: Copies()[%d,%s] = %d, emitted %d", iter, y, proj(b1), v, c1)
				}
				for b2, c2 := range copyAt[y] {
					if c2 != 0 && (c1 == c2) != (proj(b1) == proj(b2)) {
						t.Fatalf("iter %d: y=%d D=%v: assignments %b and %b have copies %d and %d",
							iter, y, deps, b1, b2, c1, c2)
					}
				}
			}
		}
	}
}

func TestGroundSkipsSatisfiedClause(t *testing.T) {
	// ∀x1 ∃y(x1): (x1 ∨ y) ∧ (¬x1 ∨ ¬y).
	f := New()
	f.AddUniversal(1)
	f.AddExistential(2, 1)
	f.Matrix.AddDimacsClause(1, 2)
	f.Matrix.AddDimacsClause(-1, -2)
	next := cnf.Var(10)
	g, err := NewGrounder(f, func() cnf.Var { next++; return next })
	if err != nil {
		t.Fatal(err)
	}
	var got [][]cnf.Lit
	add := func(c []cnf.Lit) bool {
		got = append(got, append([]cnf.Lit(nil), c...))
		return true
	}
	for _, x := range []bool{false, true} {
		if skipped, ok := g.Ground([]bool{x}, add); skipped != 1 || !ok {
			t.Fatalf("x1=%v: skipped %d ok %v, want 1 true", x, skipped, ok)
		}
	}
	want := [][]cnf.Lit{{cnf.PosLit(11)}, {cnf.NegLit(12)}}
	if len(got) != 2 || got[0][0] != want[0][0] || got[1][0] != want[1][0] {
		t.Fatalf("emitted %v, want %v", got, want)
	}
	if len(g.Copies()) != 2 || g.Copies()[Copy{2, "0"}] != 11 || g.Copies()[Copy{2, "1"}] != 12 {
		t.Fatalf("copies %v", g.Copies())
	}
}

func TestGroundStopsAtRejectedClause(t *testing.T) {
	f := New()
	f.AddUniversal(1)
	f.AddExistential(2)
	f.Matrix.AddDimacsClause(2)
	f.Matrix.AddDimacsClause(1)
	f.Matrix.AddDimacsClause(-2)
	g, err := NewGrounder(f, func() cnf.Var { return 1 })
	if err != nil {
		t.Fatal(err)
	}
	calls := 0
	skipped, ok := g.Ground([]bool{true}, func([]cnf.Lit) bool { calls++; return false })
	if ok || calls != 1 || skipped != 0 {
		t.Fatalf("ok %v, %d calls, skipped %d; want a stop at the first clause", ok, calls, skipped)
	}
}

func TestNewGrounderRejectsUnquantified(t *testing.T) {
	f := New()
	f.AddUniversal(1)
	f.Matrix.AddDimacsClause(1, 2)
	if _, err := NewGrounder(f, nil); err == nil {
		t.Fatal("unquantified variable 2 accepted")
	}
	f = New()
	f.AddUniversal(1)
	f.AddExistential(2, 3)
	if _, err := NewGrounder(f, nil); err == nil {
		t.Fatal("non-universal dependency accepted")
	}
}

func TestAssignmentKey(t *testing.T) {
	if k := AssignmentKey([]bool{true, false, true}); k != "101" {
		t.Fatalf("key = %q", k)
	}
}
