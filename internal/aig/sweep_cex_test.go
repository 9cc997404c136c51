package aig

import (
	"math/rand"
	"sync"
	"testing"

	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/sat"
)

// testOracle is a persistent SweepOracle over one solver and CNFBuilder,
// built the way internal/oracle builds its own (which this package cannot
// import).
type testOracle struct {
	s *sat.Solver
	b *CNFBuilder
}

func (o *testOracle) ProveEquiv(lhs, rhs Ref, conflictBudget int64, bud *budget.Budget) (bool, int, func(cnf.Var) bool) {
	l, r := o.b.Lit(lhs), o.b.Lit(rhs)
	o.s.ConflictBudget, o.s.Budget = conflictBudget, bud
	for i, assumps := range [2][]cnf.Lit{{l, r.Not()}, {l.Not(), r}} {
		switch st, _ := o.s.SolveErr(assumps); st {
		case sat.Sat:
			m := o.s.Model()
			return false, i + 1, func(v cnf.Var) bool { return o.b.InputValue(m, v) }
		case sat.Unknown:
			return false, i + 1, nil
		}
	}
	return true, 2, nil
}

func (o *testOracle) Footprint() (int, int64) { return o.s.ArenaBytes(), o.s.Stats.Compactions }

// testOraclePool hands out one testOracle per worker index.
type testOraclePool struct {
	g  *Graph
	mu sync.Mutex
	os map[int]*testOracle
}

func newTestOraclePool(g *Graph) *testOraclePool {
	return &testOraclePool{g: g, os: map[int]*testOracle{}}
}

func (p *testOraclePool) WorkerOracle(i int) SweepOracle {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.os[i] == nil {
		s := sat.New()
		p.os[i] = &testOracle{s: s, b: NewCNFBuilder(p.g, s)}
	}
	return p.os[i]
}

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
// 16 inputs, in persistent-oracle and fresh-solver mode with 1 and 4 workers
// and an unlimited conflict budget. One simulation word leaves many
// inequivalent candidates for SAT and simulation to refute. For every
// candidate: it is merged exactly when its functions are equal, and a
// simulation refutation is a true difference. The swept root, past the
// truth-table bound, is identical across modes and worker counts.
func TestSweepCounterexampleRefinementProperty(t *testing.T) {
	never := func() bool { return false }
	var simRefutes, satRefutes int
	for iter := 0; iter < 40; iter++ {
		seed := int64(7000 + iter)
		nv := exactInputs + 1 + iter%7 // 10..16 inputs
		vs := vars(nv)
		build := func() (*Graph, Ref) {
			g := New()
			return g, readingAll(g, randomCone(g, rand.New(rand.NewSource(seed)), vs, 30+2*nv), vs)
		}

		var want Ref = -1
		for _, oracle := range []bool{false, true} {
			for _, workers := range []int{1, 4} {
				g, r := build()
				opt := SweepOptions{Workers: workers}
				if oracle {
					opt.Oracles = newTestOraclePool(g)
				}
				c := g.indexCone(r)
				cands, _, _ := c.candidates(1, never)
				verdicts, st := g.checkCandidates(c, cands, opt, never)
				for i, cd := range cands {
					eq := sameFunction(g, cd.lhsRef, cd.rhsRef, vs)
					switch v := verdicts[i]; {
					case v == simRefuted && eq:
						t.Fatalf("iter %d oracle=%v workers=%d: candidate %d refuted by simulation but equivalent",
							iter, oracle, workers, i)
					case (v == provenEq) != eq:
						t.Fatalf("iter %d oracle=%v workers=%d: candidate %d verdict %d, functions equal=%v",
							iter, oracle, workers, i, v, eq)
					case v == unproven:
						satRefutes++
					}
				}
				simRefutes += st.SimRefuted

				if oracle {
					opt.Oracles = newTestOraclePool(g)
				}
				swept, sst := g.Sweep(r, opt)
				if sst.Exact != 0 {
					t.Fatalf("iter %d: a %d-input cone was swept by truth table", iter, nv)
				}
				if want == -1 {
					want = swept
				} else if swept != want {
					t.Fatalf("iter %d oracle=%v workers=%d: swept ref %v, fresh serial sweep gave %v",
						iter, oracle, workers, swept, want)
				}
				if !sameFunction(g, r, swept, vs) {
					t.Fatalf("iter %d oracle=%v workers=%d: sweep changed semantics", iter, oracle, workers)
				}
			}
		}
	}
	t.Logf("%d candidates refuted by simulation, %d by SAT", simRefutes, satRefutes)
	if simRefutes == 0 || satRefutes == 0 {
		t.Fatalf("property run refuted %d candidates by simulation and %d by SAT; want both > 0",
			simRefutes, satRefutes)
	}
}
