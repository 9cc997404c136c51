package aig

import (
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/sat"
)

// testOracle is a SweepOracle over one solver and CNFBuilder, built the way
// internal/oracle builds its own (which this package cannot import).
type testOracle struct {
	s      *sat.Solver
	b      *CNFBuilder
	proofs *atomic.Int64
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
	o.proofs.Add(1)
	return true, 2, nil
}

func (o *testOracle) Footprint() (int, int64) { return o.s.ArenaBytes(), o.s.Stats.Compactions }

// testOraclePool hands out one testOracle per worker index and, like
// oracle.Pool, drops them when a sweep retires its workers. proofs counts
// the equivalences its oracles proved.
type testOraclePool struct {
	g      *Graph
	mu     sync.Mutex
	os     map[int]*testOracle
	proofs atomic.Int64
}

func newTestOraclePool(g *Graph) *testOraclePool {
	return &testOraclePool{g: g, os: map[int]*testOracle{}}
}

func (p *testOraclePool) WorkerOracle(i int) SweepOracle {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.os[i] == nil {
		s := sat.New()
		p.os[i] = &testOracle{s: s, b: NewCNFBuilder(p.g, s), proofs: &p.proofs}
	}
	return p.os[i]
}

func (p *testOraclePool) RetireWorkers() {
	p.mu.Lock()
	defer p.mu.Unlock()
	clear(p.os)
}

// testSweepOptions returns opt with a fresh test oracle pool over g, as every
// sweep that reaches SAT needs.
func testSweepOptions(g *Graph, opt SweepOptions) SweepOptions {
	opt.Oracles = newTestOraclePool(g)
	return opt
}

// satProofs returns how many equivalences the test oracle pool of opt
// proved.
func satProofs(opt SweepOptions) int {
	return int(opt.Oracles.(*testOraclePool).proofs.Load())
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
