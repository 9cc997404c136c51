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
	v, _ := g.Exhaustive(g.Xor(a, b).Not(), vs, 1<<40)
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

// parityPair returns two structurally different refs for the parity of
// vs, chained from the first variable up and from the last one down. Their
// inner XORs are parities of different variable sets, so the two roots are
// the pair's only equivalence.
func parityPair(g *Graph, vs []cnf.Var) (Ref, Ref) {
	n := len(vs)
	up, down := g.Input(vs[0]), g.Input(vs[n-1])
	for i := 1; i < n; i++ {
		up = g.Xor(up, g.Input(vs[i]))
		down = g.Xor(g.Input(vs[n-1-i]), down)
	}
	return up, down
}

// TestSweepExactPath checks the truth-table decider on random cones of 3 to
// 5 inputs (signatures repeat a word pattern) and of 9 inputs (all eight
// words distinct), each with a complemented class: every candidate shares a
// truth table with its representative, and the sweep decides every one by
// hashing or truth table, with no SAT call, and keeps the function. On a
// twin graph the seam that sends every candidate to SAT proves the same
// merges and leaves a cone of the same size, since the unlimited conflict
// budget never binds.
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
			swept, st := g1.Sweep(r1, SweepOptions{})
			if st.SatCalls != 0 || st.Exact == 0 {
				t.Fatalf("k=%d iter %d: %d SAT calls, %d truth-table merges; want 0 and > 0", k, iter, st.SatCalls, st.Exact)
			}
			if st.Strash+st.Exact != st.Merged || st.Merged != len(cands) || st.Candidates != len(cands) {
				t.Fatalf("k=%d iter %d: %d hashed + %d truth-table merges, %d merged of %d candidates, want all %d",
					k, iter, st.Strash, st.Exact, st.Merged, st.Candidates, len(cands))
			}
			if !eqTables(truthTable(g1, r1, vs), truthTable(g1, swept, vs)) {
				t.Fatalf("k=%d iter %d: sweep changed the truth table", k, iter)
			}

			g2 := New()
			r2 := exactCone(g2, seed, k)
			opt := testSweepOptions(g2, SweepOptions{})
			satSwept, sst := g2.sweep(r2, opt, true)
			if sst.SatCalls == 0 || sst.Strash != 0 || sst.Exact != 0 {
				t.Fatalf("k=%d iter %d: forced SAT path made %d SAT calls, %d hashed and %d truth-table merges",
					k, iter, sst.SatCalls, sst.Strash, sst.Exact)
			}
			checkDeciders(t, "forced SAT", sst, opt)
			if sst.Merged != st.Merged || g2.ConeSize(satSwept) != g1.ConeSize(swept) {
				t.Fatalf("k=%d iter %d: SAT path merged %d into a cone of %d, default path %d into %d",
					k, iter, sst.Merged, g2.ConeSize(satSwept), st.Merged, g1.ConeSize(swept))
			}
			if !eqTables(truthTable(g2, r2, vs), truthTable(g2, satSwept, vs)) {
				t.Fatalf("k=%d iter %d: forced SAT sweep changed the truth table", k, iter)
			}
		}
	}
}

// TestSweepExactBound checks that the truth-table decider stops at
// exactInputs inputs per candidate: in a cone of exactInputs+2 inputs, a
// parity pair over exactInputs inputs is merged by truth table with no SAT
// call, and one over exactInputs+1 inputs reaches SAT.
func TestSweepExactBound(t *testing.T) {
	if 1<<exactInputs != 64*simWords {
		t.Fatalf("exactInputs %d does not match %d signature words", exactInputs, simWords)
	}
	vs := vars(exactInputs + 2)
	for _, k := range []int{exactInputs, exactInputs + 1} {
		g := New()
		up, down := parityPair(g, vs[:k])
		r := g.Or(g.And(up, g.Input(vs[len(vs)-1])), g.And(down.Not(), g.Input(vs[len(vs)-2])))
		opt := testSweepOptions(g, DefaultSweepOptions())
		swept, st := g.Sweep(r, opt)
		if st.Merged != 1 {
			t.Fatalf("%d-input pair: %d merges, want 1 (%+v)", k, st.Merged, st)
		}
		if k <= exactInputs && (st.Exact != 1 || st.SatCalls != 0) {
			t.Fatalf("%d-input pair: %d truth-table merges, %d SAT calls; want 1 and 0", k, st.Exact, st.SatCalls)
		}
		if k > exactInputs && (st.Exact != 0 || st.Strash != 0 || st.SatCalls == 0) {
			t.Fatalf("%d-input pair: %d truth-table and %d hashed merges, %d SAT calls; want 0, 0 and > 0", k, st.Exact, st.Strash, st.SatCalls)
		}
		checkDeciders(t, "bound", st, opt)
		if !sameFunction(g, r, swept, vs) {
			t.Fatalf("%d-input pair: sweep changed the function", k)
		}
	}
}

// TestSweepDecidersAgreeWithSAT holds hashing and truth tables to SAT's
// verdicts on random AIGs of 6 to 14 inputs, each with a parity pair over
// all its inputs, so the larger cones hold candidates past the truth-table
// bound too, and on a cone of 80 inputs, where no pair is decided by truth
// table. On twin graphs, the default sweep and the seam that sends every
// candidate to SAT merge as many pairs, into the same function and a cone of
// the same size; every merge has exactly one decider.
func TestSweepDecidersAgreeWithSAT(t *testing.T) {
	deciders := map[string]int{}
	for iter := 0; iter < 38; iter++ {
		nv := 6 + iter%9
		build := func() (*Graph, Ref) {
			g := New()
			if iter >= 36 {
				return g, buildWideCone(g, 20, 2)
			}
			vs := vars(nv)
			r := randomCone(g, rand.New(rand.NewSource(int64(500+iter))), vs, 4*nv)
			up, down := parityPair(g, vs)
			r = g.OrN(r, g.And(up, g.Input(vs[0])), g.And(down, g.Input(vs[1]).Not()))
			return g, readingAll(g, r, vs)
		}
		g, r := build()
		opt := testSweepOptions(g, SweepOptions{})
		swept, st := g.Sweep(r, opt)
		checkDeciders(t, "default", st, opt)
		gs, rs := build()
		sopt := testSweepOptions(gs, SweepOptions{})
		satSwept, sst := gs.sweep(rs, sopt, true)
		checkDeciders(t, "forced SAT", sst, sopt)
		if sst.Merged != st.Merged || gs.ConeSize(satSwept) != g.ConeSize(swept) {
			t.Fatalf("iter %d: SAT merged %d into a cone of %d, the default sweep %d into %d",
				iter, sst.Merged, gs.ConeSize(satSwept), st.Merged, g.ConeSize(swept))
		}
		if iter >= 36 && st.Exact != 0 {
			t.Fatalf("iter %d: %d truth-table merges in a cone of %d inputs", iter, st.Exact, len(g.Support(r)))
		}
		if !g.Equivalent(r, swept) || !gs.Equivalent(rs, satSwept) {
			t.Fatalf("iter %d: sweep changed the function", iter)
		}
		deciders["strash"] += st.Strash
		deciders["exact"] += st.Exact
		deciders["sat"] += satProofs(opt)
	}
	t.Logf("merges by decider: %v", deciders)
	for _, d := range []string{"strash", "exact", "sat"} {
		if deciders[d] == 0 {
			t.Fatalf("no merge decided by %s: %v", d, deciders)
		}
	}
}

// TestSweepHashingBuildsNothing checks hashing on gates the reduction has
// not built: once right ≡ left is merged, p = right∧d and p2 = right2∧d
// both reduce to the missing gate left∧d and are merged by hashing, with no
// node built, while q = right∧e, which would be left∧e, does not hash
// equal to p.
func TestSweepHashingBuildsNothing(t *testing.T) {
	never := func() bool { return false }
	g := New()
	x := func(v cnf.Var) Ref { return g.Input(v) }
	left := g.And(g.And(x(1), x(2)), x(3))
	right := g.And(x(1), g.And(x(2), x(3)))
	right2 := g.And(g.And(x(1), x(3)), x(2))
	p, p2, q := g.And(right, x(4)), g.And(right2, x(4)), g.And(right, x(5))
	wide := g.AndN(x(6), x(7), x(8), x(9), x(10))
	r := g.OrN(left, right, right2, p, p2, q, wide)
	nodes := g.NumNodes()

	c := g.indexCone(r)
	cands, _, _ := c.candidates(simWords, never)
	f := g.checkCandidates(c, cands, false, testSweepOptions(g, SweepOptions{}), false, never)
	// The OR tree over the parts collapses too, by hashing.
	if f.stats.Exact != 2 || f.stats.Strash == 0 || f.stats.Merged != f.stats.Strash+f.stats.Exact || f.stats.SatCalls != 0 {
		t.Fatalf("want right and right2 merged by truth table, the rest by hashing, with no SAT call: %+v", f.stats)
	}
	if f.repl[c.pos[p2.node()]] == False {
		t.Fatal("p2 was not merged into p")
	}
	if g.NumNodes() != nodes {
		t.Fatalf("the candidate checks built %d nodes", g.NumNodes()-nodes)
	}
	if f.hashEqual(sweepCand{lhs: c.edge(p), rhs: c.edge(q), lhsRef: p, rhsRef: q}) {
		t.Fatal("left∧d and left∧e hash equal")
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
		return out.XorSign(r.compl())
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
	return out.XorSign(r.compl())
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
