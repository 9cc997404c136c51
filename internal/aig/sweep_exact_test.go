package aig

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// vars returns the variables 1..n.
func vars(n int) []cnf.Var {
	vs := make([]cnf.Var, n)
	for i := range vs {
		vs[i] = cnf.Var(i + 1)
	}
	return vs
}

// sameFunction reports whether a and b agree under every assignment to vs,
// by exhaustive simulation of their miter.
func sameFunction(g *Graph, a, b Ref, vs []cnf.Var) bool {
	v, _ := g.Exhaustive(g.Xnor(a, b), vs, 1<<40)
	return v == Valid
}

// readingAll returns r xor the conjunction of the inputs vs, so that the
// cone reads every one of them.
func readingAll(g *Graph, r Ref, vs []cnf.Var) Ref {
	ins := make([]Ref, len(vs))
	for i, v := range vs {
		ins[i] = g.Input(v)
	}
	return g.Xor(r, g.AndN(ins...))
}

// complementPair returns two structurally different nodes over a, b, c
// whose functions are complements: a∧(b∨c) and (¬a∨¬b)∧(¬a∨¬c).
func complementPair(g *Graph, a, b, c Ref) (Ref, Ref) {
	f := g.And(a, g.Or(b, c))
	nf := g.And(g.And(a, b).Not(), g.And(a, c).Not())
	return f, nf
}

// exactCone builds a deterministic random cone that reads exactly the k
// inputs 1..k and holds a complemented class. Its parts are chained by XOR,
// which folds to a constant only on equal or complementary refs.
func exactCone(g *Graph, seed int64, k int) Ref {
	vs := vars(k)
	x := func(i int) Ref { return g.Input(vs[i]) }
	f, nf := complementPair(g, x(0), x(1), x(2))
	r := randomCone(g, rand.New(rand.NewSource(seed)), vs, 10+3*k)
	r = g.Xor(r, g.And(f, x(k-1)))
	r = g.Xor(r, g.And(nf, x(k/2).Not()))
	return readingAll(g, r, vs)
}

// TestSweepExactPath checks the truth-table sweep on random cones of 3 to 5
// inputs (signatures repeat a word pattern), of 9 inputs (all eight words
// distinct), each with a complemented class: the sweep issues no SAT call,
// counts one exact sweep and keeps the function. On a twin graph the seam
// that forces the SAT path proves the same candidates with SAT calls and
// rebuilds the same graph, since the unlimited conflict budget never binds.
func TestSweepExactPath(t *testing.T) {
	never := func() bool { return false }
	for _, k := range []int{3, 4, 5, exactInputs} {
		for iter := 0; iter < 10; iter++ {
			seed := int64(100*k + iter)
			vs := vars(k)
			g := New()
			r := exactCone(g, seed, k)
			c := g.indexCone(r)
			if len(c.inputs) != k {
				t.Fatalf("k=%d iter %d: cone reads %d inputs", k, iter, len(c.inputs))
			}
			cands, exact, _ := c.candidates(simWords, never)
			if !exact {
				t.Fatalf("k=%d: signatures are not truth tables", k)
			}
			complemented := false
			for _, cd := range cands {
				if !sameFunction(g, cd.lhsRef, cd.rhsRef, vs) {
					t.Fatalf("k=%d iter %d: candidate %v ≢ %v shares a truth table", k, iter, cd.lhsRef, cd.rhsRef)
				}
				complemented = complemented || (cd.lhs^cd.rhs)&1 == 1
			}
			if !complemented {
				t.Fatalf("k=%d iter %d: no complemented class among %d candidates", k, iter, len(cands))
			}

			g1 := New()
			r1 := exactCone(g1, seed, k)
			swept, st := g1.Sweep(r1, SweepOptions{Workers: 1})
			if st.SatCalls != 0 || st.Exact != 1 {
				t.Fatalf("k=%d iter %d: %d SAT calls, %d exact sweeps; want 0 and 1", k, iter, st.SatCalls, st.Exact)
			}
			if st.Merged != len(cands) || st.Candidates != len(cands) {
				t.Fatalf("k=%d iter %d: merged %d of %d candidates, want all %d", k, iter, st.Merged, st.Candidates, len(cands))
			}
			if !eqTables(truthTable(g1, r1, vs), truthTable(g1, swept, vs)) {
				t.Fatalf("k=%d iter %d: sweep changed the truth table", k, iter)
			}

			g2 := New()
			r2 := exactCone(g2, seed, k)
			satSwept, sst := g2.sweep(r2, testSweepOptions(g2, SweepOptions{Workers: 2}), true)
			if sst.SatCalls == 0 || sst.Exact != 0 {
				t.Fatalf("k=%d iter %d: forced SAT path made %d SAT calls, %d exact sweeps", k, iter, sst.SatCalls, sst.Exact)
			}
			if sst.Merged != st.Merged || satSwept != swept || g2.NumNodes() != g1.NumNodes() {
				t.Fatalf("k=%d iter %d: SAT path merged %d into %v (%d nodes), exact path %d into %v (%d nodes)",
					k, iter, sst.Merged, satSwept, g2.NumNodes(), st.Merged, swept, g1.NumNodes())
			}
		}
	}
}

// TestSweepExactBound checks that the truth-table path stops at exactInputs:
// the same construction over exactInputs+1 inputs goes to SAT.
func TestSweepExactBound(t *testing.T) {
	if 1<<exactInputs != 64*simWords {
		t.Fatalf("exactInputs %d does not match %d signature words", exactInputs, simWords)
	}
	k := exactInputs + 1
	g := New()
	r := exactCone(g, 7, k)
	swept, st := g.Sweep(r, testSweepOptions(g, DefaultSweepOptions()))
	if st.Exact != 0 || st.SatCalls == 0 {
		t.Fatalf("%d-input cone: %d exact sweeps, %d SAT calls; want 0 and > 0", k, st.Exact, st.SatCalls)
	}
	if !sameFunction(g, r, swept, vars(k)) {
		t.Fatal("sweep changed the function")
	}
}

// mapCompose is Compose as it was written with a per-call map memo and a
// strash lookup for every node, kept as the reference the dense memo must
// reproduce Ref for Ref.
func mapCompose(g *Graph, r Ref, subst map[cnf.Var]Ref, memo map[int32]Ref) Ref {
	n := r.node()
	if n == 0 {
		return r
	}
	if out, ok := memo[n]; ok {
		return out.XorSign(r.Compl())
	}
	nd := g.nodes[n]
	var out Ref
	if nd.v != 0 {
		if s, ok := subst[nd.v]; ok {
			out = s
		} else {
			out = Ref(n << 1)
		}
	} else {
		out = g.And(mapCompose(g, nd.f0, subst, memo), mapCompose(g, nd.f1, subst, memo))
	}
	memo[n] = out
	return out.XorSign(r.Compl())
}

func mapCofactor(g *Graph, r Ref, v cnf.Var, val bool) Ref {
	return mapCompose(g, r, map[cnf.Var]Ref{v: False.XorSign(val)}, map[int32]Ref{})
}

// TestComposeMatchesMapMemo quantifies variables out of random AIGs one at a
// time, on twin graphs: Exists and Forall must return the same Refs and
// leave the same node count as the map-memo reference.
func TestComposeMatchesMapMemo(t *testing.T) {
	vs := vars(8)
	for iter := 0; iter < 50; iter++ {
		build := func() (*Graph, Ref) {
			g := New()
			return g, randomAIG(g, rand.New(rand.NewSource(int64(iter))), vs, 60)
		}
		g, r := build()
		gRef, rRef := build()
		order := rand.New(rand.NewSource(int64(-iter))).Perm(len(vs))
		for step, i := range order {
			v := vs[i]
			var want Ref
			if step%2 == 0 {
				r = g.Exists(r, v)
				want = gRef.Or(mapCofactor(gRef, rRef, v, false), mapCofactor(gRef, rRef, v, true))
			} else {
				r = g.Forall(r, v)
				want = gRef.And(mapCofactor(gRef, rRef, v, false), mapCofactor(gRef, rRef, v, true))
			}
			if r != want || g.NumNodes() != gRef.NumNodes() {
				t.Fatalf("iter %d step %d: quantifying %d gave %v with %d nodes, reference %v with %d",
					iter, step, v, r, g.NumNodes(), want, gRef.NumNodes())
			}
			rRef = want
		}
	}
}
