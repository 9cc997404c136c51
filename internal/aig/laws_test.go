package aig

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// TestBooleanAlgebraLaws verifies algebraic identities on randomly built
// references using SAT-backed equivalence — exercising And/Or/Xor/Ite,
// structural hashing, and the CNF bridge together.
func TestBooleanAlgebraLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(1234))
	vs := []cnf.Var{1, 2, 3, 4}
	for iter := 0; iter < 40; iter++ {
		g := New()
		a := randomAIG(g, rng, vs, 6)
		b := randomAIG(g, rng, vs, 6)
		c := randomAIG(g, rng, vs, 6)
		type law struct {
			name string
			l, r Ref
		}
		laws := []law{
			{"commutativity ∧", g.And(a, b), g.And(b, a)},
			{"associativity ∧", g.And(a, g.And(b, c)), g.And(g.And(a, b), c)},
			{"De Morgan", g.And(a, b).Not(), g.Or(a.Not(), b.Not())},
			{"distribution", g.And(a, g.Or(b, c)), g.Or(g.And(a, b), g.And(a, c))},
			{"xor via ite", g.Xor(a, b), g.Ite(a, b.Not(), b)},
			{"absorption", g.Or(a, g.And(a, b)), a},
			{"ite symmetry", g.Ite(a, b, c), g.Ite(a.Not(), c, b)},
			{"xor self-inverse", g.Xor(g.Xor(a, b), b), a},
		}
		for _, lw := range laws {
			if !g.Equivalent(lw.l, lw.r) {
				t.Fatalf("iter %d: law %q violated", iter, lw.name)
			}
		}
	}
}

// TestQuantifierLaws verifies quantifier identities: commutation of
// same-kind quantifiers, duality, and distribution over independent
// conjuncts.
func TestQuantifierLaws(t *testing.T) {
	rng := rand.New(rand.NewSource(4321))
	for iter := 0; iter < 30; iter++ {
		g := New()
		f := randomAIG(g, rng, []cnf.Var{1, 2, 3}, 8)
		// ∃x∃y f = ∃y∃x f
		if !g.Equivalent(g.Exists(g.Exists(f, 1), 2), g.Exists(g.Exists(f, 2), 1)) {
			t.Fatalf("iter %d: ∃ commutation violated", iter)
		}
		// ∀x f = ¬∃x ¬f
		if !g.Equivalent(g.Forall(f, 1), g.Exists(f.Not(), 1).Not()) {
			t.Fatalf("iter %d: quantifier duality violated", iter)
		}
		// Independence: ∃x (f(y,z) ∧ h(x)) = f ∧ ∃x h.
		h := randomAIG(g, rng, []cnf.Var{4, 5}, 5)
		fNoX := g.Compose(f, map[cnf.Var]Ref{1: g.Input(2)})
		lhs := g.Exists(g.And(fNoX, g.And(h, g.Input(1))), 1)
		rhs := g.And(fNoX, g.Exists(g.And(h, g.Input(1)), 1))
		if !g.Equivalent(lhs, rhs) {
			t.Fatalf("iter %d: quantifier scope extrusion violated", iter)
		}
	}
}

// TestComposeSubstitutionLemma checks f[g/x] evaluated at a equals f
// evaluated at a[x := g(a)].
func TestComposeSubstitutionLemma(t *testing.T) {
	rng := rand.New(rand.NewSource(5678))
	vs := []cnf.Var{1, 2, 3}
	for iter := 0; iter < 60; iter++ {
		g := New()
		f := randomAIG(g, rng, vs, 8)
		sub := randomAIG(g, rng, []cnf.Var{2, 3}, 5)
		composed := g.Compose(f, map[cnf.Var]Ref{1: sub})
		for bits := 0; bits < 4; bits++ {
			env := map[cnf.Var]bool{2: bits&1 != 0, 3: bits&2 != 0}
			read := func(v cnf.Var) bool { return env[v] }
			want := func() bool {
				inner := g.Eval(sub, read)
				return g.Eval(f, func(v cnf.Var) bool {
					if v == 1 {
						return inner
					}
					return env[v]
				})
			}()
			if got := g.Eval(composed, read); got != want {
				t.Fatalf("iter %d bits %02b: substitution lemma violated", iter, bits)
			}
		}
	}
}
