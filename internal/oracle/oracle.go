// Package oracle provides the pipeline's incremental SAT substrate: one
// CDCL solver plus Tseitin builder per consumer, so that encodings and
// learned clauses are reused instead of rebuilt for every query. Every SAT
// question of a solve — each sweep's candidate checks, each MaxSAT
// elimination-set step, the final SAT check — goes through the run's Pool.
// The main oracle and the MaxSAT backend persist for the whole solve; a
// sweep's oracle persists within that sweep and is retired when the
// sweep ends, so a later sweep's queries do not propagate over the clauses
// and learnts of earlier sweeps' cones.
//
// The AIG is append-only (nodes are never deleted or rewritten), so a
// Tseitin definition once pushed is a permanently valid fact: an Oracle
// therefore pushes only the delta of newly reachable cone nodes per query
// (CNFBuilder's node→var memo persists) and poses every question as an
// assumption query, never as a retractable unit clause. Learned clauses
// survive between an oracle's queries, bounded by the solver's retention
// policy (sat.Solver.KeepLearnts), and all clauses — original and learned —
// live in the solver's single packed arena.
//
// The one consumer whose constraints ARE transient, the MaxSAT
// elimination-set search, keeps its own persistent backend (maxsat.Backend,
// handed out by the Pool): each instance's scratch clauses live in an
// activation-literal scope retracted with one top-level unit, and
// Stats.Scopes counts those scopes.
package oracle

import (
	"repro/internal/aig"
	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/faults"
	"repro/internal/sat"
)

// QueryPoint is the fault-injection seam fired on every persistent-oracle
// query, alongside the lower-level sat.solve point. Injecting here models a
// failing long-lived oracle specifically: consumers must degrade exactly as
// they would on budget exhaustion (sweeps leave pairs unproven, final
// checks surface the error).
var QueryPoint = faults.Point("oracle.query")

func init() { faults.Register(QueryPoint) }

// keepLearnts is the learned-clause retention floor for oracle solvers:
// the queries of one sweep are closely related, so a much larger floor than
// the per-call default (100) pays for itself.
const keepLearnts = 2000

// Stats counts reuse across one or more oracles.
type Stats struct {
	Queries     int64 // SAT queries answered
	Incremental int64 // queries answered on an already-loaded solver
	Rebuilds    int64 // fresh solver instantiations: one per oracle, so one per sweep that reaches SAT
	Scopes      int64 // MaxSAT activation-literal scopes opened and retracted

	EncodedNodes    int64 // AIG nodes Tseitin-encoded (delta pushes, summed)
	LearntsRetained int64 // peak learned clauses alive at query entry
	ArenaBytesHW    int64 // peak packed-arena bytes of any one solver
}

// Add accumulates o into s (sums for flows, maxima for high-water marks).
func (s *Stats) Add(o Stats) {
	s.Queries += o.Queries
	s.Incremental += o.Incremental
	s.Rebuilds += o.Rebuilds
	s.Scopes += o.Scopes
	s.EncodedNodes += o.EncodedNodes
	if o.LearntsRetained > s.LearntsRetained {
		s.LearntsRetained = o.LearntsRetained
	}
	if o.ArenaBytesHW > s.ArenaBytesHW {
		s.ArenaBytesHW = o.ArenaBytesHW
	}
}

// Counters flattens the stats into the generic counter map consumed by
// structured trace events and the ablation table.
func (s Stats) Counters() map[string]int64 {
	if s.Queries == 0 && s.Rebuilds == 0 {
		return nil
	}
	return map[string]int64{
		"oracle_queries":     s.Queries,
		"oracle_incremental": s.Incremental,
		"oracle_rebuilds":    s.Rebuilds,
		"oracle_learnts":     s.LearntsRetained,
		"oracle_arena_hw":    s.ArenaBytesHW,
	}
}

// Oracle is one incremental SAT instance over a single AIG. It
// is single-goroutine: each consumer (a sweep, the final check) owns its
// oracle exclusively. A Pool hands out one oracle per consumer.
type Oracle struct {
	g     *aig.Graph
	s     *sat.Solver
	b     *aig.CNFBuilder
	stats Stats
}

// New returns a fresh oracle over g. This is the only place a solver is
// built; every subsequent query on the oracle is incremental.
func New(g *aig.Graph) *Oracle {
	s := sat.New()
	s.KeepLearnts = keepLearnts
	o := &Oracle{g: g, s: s, b: aig.NewCNFBuilder(g, s)}
	o.stats.Rebuilds = 1
	return o
}

// Stats returns a snapshot of the oracle's reuse counters.
func (o *Oracle) Stats() Stats {
	st := o.stats
	st.EncodedNodes = int64(o.b.EncodedNodes())
	return st
}

// query runs one assumption query against the persistent solver, metering
// the reuse counters and firing the oracle.query fault point. A non-nil
// scope confines the solve to those variables (sat.Solver.SolveWithin).
func (o *Oracle) query(assumps []cnf.Lit, scope []cnf.Var, conflictBudget int64, bud *budget.Budget) (sat.Status, error) {
	if err := bud.Faults().Fire(QueryPoint); err != nil {
		return sat.Unknown, err
	}
	if o.stats.Queries > 0 {
		o.stats.Incremental++
	}
	o.stats.Queries++
	if n := int64(o.s.NumLearnts()); n > o.stats.LearntsRetained {
		o.stats.LearntsRetained = n
	}
	o.s.ConflictBudget = conflictBudget
	o.s.Budget = bud
	var st sat.Status
	var err error
	if scope != nil {
		st, err = o.s.SolveWithin(assumps, scope)
	} else {
		st, err = o.s.SolveErr(assumps)
	}
	if ab := int64(o.s.ArenaBytes()); ab > o.stats.ArenaBytesHW {
		o.stats.ArenaBytesHW = ab
	}
	return st, err
}

// IsSatisfiable checks satisfiability of the function rooted at r against
// the persistent solver. The root is an assumption, not a unit clause, so
// the same oracle answers for any root later. On sat it returns a
// satisfying assignment of r's support variables, like
// aig.Graph.IsSatisfiable.
func (o *Oracle) IsSatisfiable(r aig.Ref, bud *budget.Budget) (bool, map[cnf.Var]bool, error) {
	if r == aig.True {
		return true, map[cnf.Var]bool{}, nil
	}
	if r == aig.False {
		return false, nil, nil
	}
	l := o.b.Lit(r)
	st, err := o.query([]cnf.Lit{l}, nil, 0, bud)
	if st == sat.Unknown {
		if err == nil {
			err = sat.ErrBudget
		}
		return false, nil, err
	}
	if st != sat.Sat {
		return false, nil, nil
	}
	m := o.s.Model()
	out := make(map[cnf.Var]bool)
	for v := range o.g.Support(r) {
		out[v] = o.b.InputValue(m, v)
	}
	return true, out, nil
}

// ProveEquiv implements aig.SweepOracle: it reports whether the functions
// rooted at lhs and rhs are equivalent, by refuting both directions of
// lhs≠rhs with assumption queries. Budget exhaustion and injected faults
// yield false (unproven), which sweeping treats soundly by not merging. A
// satisfiable query is a counterexample, returned as cex: the model's value
// of each input variable, valid until the oracle's next query. Inputs
// outside the cones of lhs and rhs read false.
//
// Each query is confined to the joint cone of lhs and rhs
// (aig.CNFBuilder.Cone), so it neither decides nor propagates over the
// other cones the oracle has encoded.
func (o *Oracle) ProveEquiv(lhs, rhs aig.Ref, conflictBudget int64, bud *budget.Budget) (proven bool, calls int, cex func(cnf.Var) bool) {
	scope := o.b.Cone(lhs, rhs)
	ll, rl := o.b.Lit(lhs), o.b.Lit(rhs)
	for _, assumps := range [2][]cnf.Lit{{ll, rl.Not()}, {ll.Not(), rl}} {
		calls++
		st, err := o.query(assumps, scope, conflictBudget, bud)
		if err != nil || st == sat.Unknown {
			return false, calls, nil
		}
		if st == sat.Sat {
			m := o.s.Model()
			return false, calls, func(v cnf.Var) bool { return o.b.InputValue(m, v) }
		}
	}
	return true, calls, nil
}

// Footprint implements aig.SweepOracle.
func (o *Oracle) Footprint() (arenaBytes int, compactions int64) {
	return o.s.ArenaBytes(), o.s.Stats.Compactions
}
