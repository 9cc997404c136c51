package core_test

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/problem"
)

// The metamorphic suite checks verdict invariants no DQBF solver may break:
// renaming variables, shuffling or duplicating clauses, and extending
// dependency sets (the monotone direction of the paper's Theorem 2 intuition:
// a Skolem function over D_y still works over any D' ⊇ D_y, so adding
// dependencies can only keep a SAT formula SAT). Each transformation runs
// over the pinned-seed random generator shared with dqbffuzz, so any failure
// reproduces from (seed, index) alone.

// solveVerdict decides f with the default options, failing the test on a
// non-verdict.
func solveVerdict(t *testing.T, f *dqbf.Formula) bool {
	t.Helper()
	res := core.New(core.DefaultOptions()).Solve(problem.FromDQBF(f))
	if res.Status != core.Solved {
		t.Fatalf("status %v, want solved", res.Status)
	}
	return res.Sat
}

// renameFormula maps every variable v to perm[v], preserving the quantifier
// structure.
func renameFormula(f *dqbf.Formula, perm map[cnf.Var]cnf.Var) *dqbf.Formula {
	g := dqbf.New()
	for _, x := range f.Univ {
		g.AddUniversal(perm[x])
	}
	for _, y := range f.Exist {
		var deps []cnf.Var
		for _, x := range f.Deps[y].Vars() {
			deps = append(deps, perm[x])
		}
		g.AddExistential(perm[y], deps...)
	}
	for _, c := range f.Matrix.Clauses {
		nc := make(cnf.Clause, len(c))
		for i, l := range c {
			nc[i] = cnf.NewLit(perm[l.Var()], l.Neg())
		}
		g.Matrix.Clauses = append(g.Matrix.Clauses, nc)
	}
	return g
}

// TestMetamorphicRenaming applies a random variable permutation; the verdict
// must not change.
func TestMetamorphicRenaming(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	for i := 0; i < 50; i++ {
		f := dqbf.RandomFormula(rng, 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(12))
		want := solveVerdict(t, f)

		nv := len(f.Univ) + len(f.Exist)
		vars := make([]cnf.Var, 0, nv)
		for v := cnf.Var(1); v <= cnf.Var(nv); v++ {
			vars = append(vars, v)
		}
		perm := make(map[cnf.Var]cnf.Var, nv)
		for j, k := range rng.Perm(nv) {
			perm[vars[j]] = vars[k]
		}
		got := solveVerdict(t, renameFormula(f, perm))
		if got != want {
			t.Fatalf("instance %d: renamed verdict %v, original %v (perm %v)\nclauses %v",
				i, got, want, perm, f.Matrix.Clauses)
		}
	}
}

// TestMetamorphicClauseShuffleDup shuffles the clause list and duplicates a
// random subset; conjunction is commutative and idempotent, so the verdict
// must not change.
func TestMetamorphicClauseShuffleDup(t *testing.T) {
	rng := rand.New(rand.NewSource(22))
	for i := 0; i < 50; i++ {
		f := dqbf.RandomFormula(rng, 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(12))
		want := solveVerdict(t, f)

		g := f.Clone()
		rng.Shuffle(len(g.Matrix.Clauses), func(a, b int) {
			g.Matrix.Clauses[a], g.Matrix.Clauses[b] = g.Matrix.Clauses[b], g.Matrix.Clauses[a]
		})
		for _, c := range f.Matrix.Clauses {
			if rng.Intn(2) == 0 {
				g.Matrix.Clauses = append(g.Matrix.Clauses, append(cnf.Clause(nil), c...))
			}
		}
		got := solveVerdict(t, g)
		if got != want {
			t.Fatalf("instance %d: shuffled/duplicated verdict %v, original %v\nclauses %v",
				i, got, want, f.Matrix.Clauses)
		}
	}
}

// TestMetamorphicDependencyExtension adds random universals to random
// dependency sets. Extension is monotone: every Skolem function of the
// original formula is still admissible, so SAT must stay SAT (UNSAT may
// legitimately flip to SAT, which the test accepts).
func TestMetamorphicDependencyExtension(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	checked := 0
	for i := 0; i < 60; i++ {
		f := dqbf.RandomFormula(rng, 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(12))
		if !solveVerdict(t, f) {
			continue
		}
		checked++
		g := f.Clone()
		grew := false
		for _, y := range g.Exist {
			for _, x := range g.Univ {
				if !g.Deps[y].Has(x) && rng.Intn(2) == 0 {
					g.Deps[y].Add(x)
					grew = true
				}
			}
		}
		if !grew {
			continue
		}
		if !solveVerdict(t, g) {
			t.Fatalf("instance %d: SAT became UNSAT after dependency extension\noriginal deps %v\nextended deps %v\nclauses %v",
				i, f.Deps, g.Deps, f.Matrix.Clauses)
		}
	}
	if checked == 0 {
		t.Fatal("no SAT instance exercised the extension direction")
	}
}
