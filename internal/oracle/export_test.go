package oracle

import (
	"repro/internal/aig"
	"repro/internal/sat"
)

// SolverSize reports the variables and clause-arena bytes of o's persistent
// solver, so tests can check that encoding pushes only deltas.
func SolverSize(o *Oracle) (vars, arenaBytes int) { return o.s.NumVars(), o.s.ArenaBytes() }

// Encode encodes r's cone into o's solver without a query.
func Encode(o *Oracle, r aig.Ref) { o.b.Lit(r) }

// SolverStats returns the counters of o's solver.
func SolverStats(o *Oracle) sat.Stats { return o.s.Stats }
