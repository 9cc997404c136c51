package aig

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// randomCone builds a deterministic random cone over vs whose root is the
// disjunction of several random gates, so most gates stay in the cone.
func randomCone(g *Graph, rng *rand.Rand, vs []cnf.Var, ops int) Ref {
	pool := make([]Ref, 0, len(vs)+ops)
	for _, v := range vs {
		pool = append(pool, g.Input(v))
	}
	for i := 0; i < ops; i++ {
		a := pool[rng.Intn(len(pool))].XorSign(rng.Intn(2) == 0)
		b := pool[rng.Intn(len(pool))].XorSign(rng.Intn(2) == 0)
		pool = append(pool, g.And(a, b))
	}
	return g.OrN(pool[len(pool)-8:]...)
}

// TestSweepCounterexampleRefinementProperty checks counterexample-guided
// candidate filtering against exhaustive simulation on random cones of 10 to
// 16 inputs, with an unlimited conflict budget. One simulation word leaves
// many inequivalent candidates for SAT and simulation to refute. Every
// candidate is merged exactly when its functions are equal, so no
// refutation, by simulation or by SAT, drops a true equivalence, and the
// swept function is unchanged.
func TestSweepCounterexampleRefinementProperty(t *testing.T) {
	never := func() bool { return false }
	var simRefutes, satRefutes int
	for iter := 0; iter < 40; iter++ {
		seed := int64(7000 + iter)
		nv := exactInputs + 1 + iter%7 // 10..16 inputs
		vs := vars(nv)

		g := New()
		r := readingAll(g, randomCone(g, rand.New(rand.NewSource(seed)), vs, 30+2*nv), vs)
		opt := testSweepOptions(g, SweepOptions{})
		c := g.indexCone(r)
		cands, _, _ := c.candidates(1, never)
		f := g.checkCandidates(c, cands, false, opt, false, never)
		for i, cd := range cands {
			eq := sameFunction(g, cd.lhsRef, cd.rhsRef, vs)
			if merged := f.repl[cd.rhs>>1] != False; merged != eq {
				t.Fatalf("iter %d: candidate %d merged=%v, functions equal=%v", iter, i, merged, eq)
			}
		}
		st := f.stats
		simRefutes += st.SimRefuted
		satRefutes += st.Candidates - st.Merged - st.SimRefuted
		checkDeciders(t, "refinement", st, opt)

		swept, _ := g.Sweep(r, testSweepOptions(g, opt))
		if !sameFunction(g, r, swept, vs) {
			t.Fatalf("iter %d: sweep changed semantics", iter)
		}
	}
	t.Logf("%d candidates refuted by simulation, %d by SAT", simRefutes, satRefutes)
	if simRefutes == 0 || satRefutes == 0 {
		t.Fatalf("property run refuted %d candidates by simulation and %d by SAT; want both > 0",
			simRefutes, satRefutes)
	}
}
