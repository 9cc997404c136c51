package aig

import (
	"sync"

	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/sat"
)

// testOracle is a SweepOracle over one solver and CNFBuilder, built the way
// internal/oracle builds its own (which this package cannot import).
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

// testOraclePool hands out one testOracle per worker index and, like
// oracle.Pool, drops them when a sweep retires its workers.
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
