package maxsat

import (
	"repro/internal/cnf"
	"repro/internal/sat"
)

// Backend is a persistent MaxSAT substrate: one long-lived SAT solver
// shared by every instance solved on it. Each Solve opens an
// activation-literal scope — the instance's variables are allocated in a
// fresh region of the solver's variable space and every clause (hard,
// relaxed soft, cardinality counter) is guarded as (c ∨ ¬act) — runs the
// usual UNSAT→SAT linear search with act appended to every assumption set,
// and closes the scope by asserting the top-level unit ¬act. Retraction is
// a constant-time clause add, never a solver rebuild, and learned clauses
// over shared structure survive into the next instance.
//
// HQS's elimination-set selections are exactly such a sequence of closely
// related instances (the dependency-cycle structure persists while the
// formula shrinks), which is where the reuse pays off.
//
// A Backend is not safe for concurrent use; the selection steps of one
// pipeline run are sequential.
type Backend struct {
	S *sat.Solver

	// Reuse counters, read by the oracle pool's stats.
	Scopes  int64 // instances solved (activation scopes opened + retracted)
	Queries int64 // SAT queries issued across all scopes
}

// NewBackend returns a persistent MaxSAT substrate with a raised
// learned-clause retention floor (the scopes' queries are closely related).
func NewBackend() *Backend {
	s := sat.New()
	s.KeepLearnts = 2000
	return &Backend{S: s}
}

// solve runs instance m inside a fresh activation scope on the backend.
func (be *Backend) solve(m *Solver) (Result, error) {
	s := be.S
	s.Budget = m.Budget
	be.Scopes++
	q0 := s.Stats.SolveCalls

	// Scope prologue: activation literal first (phase-pinned false so the
	// retired scope never pollutes branching), then this instance's
	// variable region.
	actVar := s.NewVar()
	s.SetPhase(actVar, false)
	act := cnf.PosLit(actVar)
	base := s.NumVars()
	s.EnsureVars(base + m.numVars)

	res, err := m.run(s, base, []cnf.Lit{act}, guardedAdder{s: s, inactive: act.Not()})

	// Scope epilogue: retract every guarded clause with one top-level unit.
	s.AddClause(act.Not())
	be.Queries += s.Stats.SolveCalls - q0
	return res, err
}
