package oracle

// SolverSize reports the variables and problem clauses of o's persistent
// solver, so tests can check that encoding pushes only deltas.
func SolverSize(o *Oracle) (vars, clauses int) { return o.s.NumVars(), o.s.NumClauses() }
