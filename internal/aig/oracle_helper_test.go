package aig

import (
	"testing"

	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/sat"
)

// testOracle is a SweepOracle over one solver and CNFBuilder, built the way
// internal/oracle builds its own (which this package cannot import): each
// query is confined to the pair's cone, as there.
type testOracle struct {
	s      *sat.Solver
	b      *CNFBuilder
	proofs *int
}

func (o *testOracle) ProveEquiv(lhs, rhs Ref, conflictBudget int64, bud *budget.Budget) (bool, int, func(cnf.Var) bool) {
	scope := o.b.Cone(lhs, rhs)
	l, r := o.b.Lit(lhs), o.b.Lit(rhs)
	o.s.ConflictBudget, o.s.Budget = conflictBudget, bud
	for i, assumps := range [2][]cnf.Lit{{l, r.Not()}, {l.Not(), r}} {
		switch st, _ := o.s.SolveWithin(assumps, scope); st {
		case sat.Sat:
			m := o.s.Model()
			return false, i + 1, func(v cnf.Var) bool { return o.b.InputValue(m, v) }
		case sat.Unknown:
			return false, i + 1, nil
		}
	}
	*o.proofs++
	return true, 2, nil
}

func (o *testOracle) Footprint() (int, int64) { return o.s.ArenaBytes(), o.s.Stats.Compactions }

// testOraclePool hands a sweep one testOracle and, like oracle.Pool, drops
// it when the sweep retires it. proofs counts the equivalences its oracles
// proved.
type testOraclePool struct {
	g      *Graph
	o      *testOracle
	proofs int
}

func newTestOraclePool(g *Graph) *testOraclePool { return &testOraclePool{g: g} }

func (p *testOraclePool) Oracle() SweepOracle {
	if p.o == nil {
		s := sat.New()
		p.o = &testOracle{s: s, b: NewCNFBuilder(p.g, s), proofs: &p.proofs}
	}
	return p.o
}

func (p *testOraclePool) Retire() { p.o = nil }

// testSweepOptions returns opt with a fresh test oracle pool over g, as every
// sweep that reaches SAT needs.
func testSweepOptions(g *Graph, opt SweepOptions) SweepOptions {
	opt.Oracles = newTestOraclePool(g)
	return opt
}

// satProofs returns how many equivalences the test oracle pool of opt
// proved.
func satProofs(opt SweepOptions) int {
	return opt.Oracles.(*testOraclePool).proofs
}

// checkDeciders fails t unless every merge of st has exactly one decider:
// Strash + Exact + the pool's SAT proofs = Merged. opt's pool must have
// served this one sweep only.
func checkDeciders(t *testing.T, what string, st SweepStats, opt SweepOptions) {
	t.Helper()
	if sat := satProofs(opt); st.Strash+st.Exact+sat != st.Merged {
		t.Fatalf("%s: %d hashed + %d truth-table + %d SAT-proven merges, but %d merged", what, st.Strash, st.Exact, sat, st.Merged)
	}
}
