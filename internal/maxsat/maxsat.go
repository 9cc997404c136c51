// Package maxsat implements a partial MaxSAT solver on top of the CDCL SAT
// solver.
//
// A partial MaxSAT instance consists of hard clauses, which must be
// satisfied, and soft clauses, of which as many as possible should be
// satisfied. HQS uses partial MaxSAT to compute a minimum set of universal
// variables whose elimination turns a DQBF into an equivalent QBF (paper
// Section III-A, Equations 1 and 2): soft clauses are the unit clauses
// ¬x̂ for every universal variable x, hard clauses encode the binary
// dependency-set cycles.
//
// The solver relaxes each soft clause with a fresh relaxation variable and
// searches for the minimum number of relaxed (violated) softs with a
// sequential-counter cardinality encoding, increasing the bound from zero
// until the SAT oracle answers SAT. Since HQS's optima are tiny (the minimum
// elimination sets rarely exceed a handful of variables), the UNSAT→SAT
// linear search converges in a few oracle calls.
package maxsat

import (
	"errors"
	"fmt"

	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/faults"
	"repro/internal/sat"
)

// ErrUnsat is returned when the hard clauses alone are unsatisfiable.
var ErrUnsat = errors.New("maxsat: hard clauses unsatisfiable")

// ErrBudget is returned when the budget stops the linear search (or an
// oracle call inside it) before the optimum is reached. The budget's own
// error (budget.ErrCancelled, budget.ErrDeadline, ...) is wrapped.
var ErrBudget = errors.New("maxsat: budget exhausted")

// Solver accumulates hard and soft clauses.
type Solver struct {
	numVars int
	hard    []cnf.Clause
	soft    []cnf.Clause

	// Budget, when non-nil, bounds and cancels the UNSAT→SAT linear search:
	// it is checked between oracle calls and inside each CDCL search.
	Budget *budget.Budget

	// Backend, when non-nil, runs the search on a persistent shared solver
	// instead of a fresh sat.New(): this instance's clauses are loaded into
	// an activation-literal scope (retracted when the search finishes) and
	// learned clauses survive into the next instance solved on the same
	// backend. Results are identical to the fresh path.
	Backend *Backend
}

// New returns an empty instance over n variables.
func New(n int) *Solver {
	return &Solver{numVars: n}
}

// NewVar allocates a fresh variable.
func (m *Solver) NewVar() cnf.Var {
	m.numVars++
	return cnf.Var(m.numVars)
}

func (m *Solver) grow(c cnf.Clause) {
	for _, l := range c {
		if int(l.Var()) > m.numVars {
			m.numVars = int(l.Var())
		}
	}
}

// AddHard adds a clause that must be satisfied.
func (m *Solver) AddHard(lits ...cnf.Lit) {
	c := cnf.Clause(lits).Clone()
	m.grow(c)
	m.hard = append(m.hard, c)
}

// AddSoft adds a clause that should be satisfied if possible.
func (m *Solver) AddSoft(lits ...cnf.Lit) {
	c := cnf.Clause(lits).Clone()
	m.grow(c)
	m.soft = append(m.soft, c)
}

// Result is the outcome of a Solve call.
type Result struct {
	// Cost is the number of violated soft clauses in the optimum.
	Cost int
	// Model is an optimal assignment over the original variables.
	Model cnf.Assignment
}

// Solve computes an assignment satisfying all hard clauses and a maximum
// number of soft clauses.
func (m *Solver) Solve() (Result, error) {
	// Fault-injection seam: the MaxSAT oracle of the elimination-set
	// selection. An injected error surfaces like any other oracle failure.
	if err := m.Budget.Faults().Fire(faults.MaxSATSolve); err != nil {
		return Result{}, fmt.Errorf("maxsat: %w", err)
	}
	if m.Backend != nil {
		return m.Backend.solve(m)
	}
	s := sat.New()
	s.Budget = m.Budget
	s.EnsureVars(m.numVars)
	return m.run(s, 0, nil, rawAdder{s})
}

// run executes the hard-clause load and the UNSAT→SAT linear search on s.
// Instance variables are offset by base (0 on a fresh solver), the scope
// assumptions are appended to every oracle query, and clauses go through
// add — which, on a shared backend, guards each one with the scope's
// activation literal. With base 0, an empty scope, and a raw adder this is
// byte-identical to the historical fresh-solver search.
func (m *Solver) run(s *sat.Solver, base int, scope []cnf.Lit, add clauseAdder) (Result, error) {
	var stopErr error // why the last Unknown oracle call stopped
	solve := func(assumps []cnf.Lit) sat.Status {
		if len(scope) > 0 {
			assumps = append(append(make([]cnf.Lit, 0, len(assumps)+len(scope)), assumps...), scope...)
		}
		st, err := s.Solve(assumps, nil)
		stopErr = err
		return st
	}
	for _, c := range m.hard {
		if !add.AddClause(m.shiftClause(c, base)...) {
			return Result{}, ErrUnsat
		}
	}
	// Relax each soft clause: (c ∨ r) with fresh r; r true ⇒ soft violated
	// (or at least permitted to be).
	relax := make([]cnf.Lit, len(m.soft))
	for i, c := range m.soft {
		r := add.NewVar()
		relax[i] = cnf.PosLit(r)
		cc := append(m.shiftClause(c, base), cnf.PosLit(r))
		if !add.AddClause(cc...) {
			return Result{}, ErrUnsat
		}
	}
	if len(m.soft) == 0 {
		switch st := solve(nil); {
		case st == sat.Unknown:
			return Result{}, m.budgetErr(stopErr)
		case st != sat.Sat:
			return Result{}, ErrUnsat
		}
		return Result{Cost: 0, Model: m.truncateModel(s.Model(), base)}, nil
	}

	// First try cost 0: assume all relaxation literals false.
	neg := make([]cnf.Lit, len(relax))
	for i, r := range relax {
		neg[i] = r.Not()
	}
	switch solve(neg) {
	case sat.Sat:
		return Result{Cost: 0, Model: m.truncateModel(s.Model(), base)}, nil
	case sat.Unknown:
		return Result{}, m.budgetErr(stopErr)
	}
	// Hard clauses alone satisfiable?
	switch st := solve(nil); {
	case st == sat.Unknown:
		return Result{}, m.budgetErr(stopErr)
	case st != sat.Sat:
		return Result{}, ErrUnsat
	}
	best := m.countViolated(s.Model(), base)

	// Sequential counter over the relaxation variables; tighten k upward
	// from 1 until SAT (we know cost >= 1 here and best is an upper bound).
	enc := newSeqCounter(add, relax)
	for k := 1; k < best; k++ {
		if m.Budget.Stopped() {
			return Result{}, m.budgetErr(nil)
		}
		switch solve(enc.atMost(k)) {
		case sat.Sat:
			return Result{Cost: m.countViolated(s.Model(), base), Model: m.truncateModel(s.Model(), base)}, nil
		case sat.Unknown:
			return Result{}, m.budgetErr(stopErr)
		}
	}
	// Optimum equals the upper bound.
	switch solve(enc.atMost(best)) {
	case sat.Unknown:
		return Result{}, m.budgetErr(stopErr)
	case sat.Sat:
	default:
		return Result{}, errors.New("maxsat: internal error, bound unreachable")
	}
	return Result{Cost: best, Model: m.truncateModel(s.Model(), base)}, nil
}

// shiftClause maps a clause over this instance's variables into the solver
// region starting at base. With base 0 it just clones (AddClause stores a
// copy anyway, and the relaxation append below must not alias m.soft).
func (m *Solver) shiftClause(c cnf.Clause, base int) cnf.Clause {
	out := c.Clone()
	if base == 0 {
		return out
	}
	for i, l := range out {
		out[i] = cnf.NewLit(l.Var()+cnf.Var(base), l.Neg())
	}
	return out
}

// budgetErr wraps the budget's stop reason in ErrBudget. If the budget
// cannot explain the stop, the oracle's own error (an injected fault, the
// conflict cap) is wrapped instead; an Unknown with neither is an internal
// error.
func (m *Solver) budgetErr(oracleErr error) error {
	if err := m.Budget.Err(); err != nil {
		return errors.Join(ErrBudget, err)
	}
	if oracleErr != nil {
		return fmt.Errorf("maxsat: oracle stopped: %w", oracleErr)
	}
	return errors.New("maxsat: oracle returned unknown")
}

func (m *Solver) countViolated(model cnf.Assignment, base int) int {
	n := 0
	for _, c := range m.soft {
		sat := false
		for _, l := range c {
			ll := l
			if base != 0 {
				ll = cnf.NewLit(l.Var()+cnf.Var(base), l.Neg())
			}
			if model.Lit(ll) {
				sat = true
				break
			}
		}
		if !sat {
			n++
		}
	}
	return n
}

func (m *Solver) truncateModel(model cnf.Assignment, base int) cnf.Assignment {
	out := cnf.NewAssignment(m.numVars)
	for v := 1; v <= m.numVars; v++ {
		out.Set(cnf.Var(v), model.Get(cnf.Var(v+base)))
	}
	return out
}

// clauseAdder is where the search's derived clauses (relaxed softs, the
// cardinality counter) go: straight into a fresh solver, or guarded by the
// scope's activation literal on a shared backend.
type clauseAdder interface {
	NewVar() cnf.Var
	AddClause(lits ...cnf.Lit) bool
}

// rawAdder adds clauses unguarded (fresh-solver mode).
type rawAdder struct{ s *sat.Solver }

func (a rawAdder) NewVar() cnf.Var             { return a.s.NewVar() }
func (a rawAdder) AddClause(l ...cnf.Lit) bool { return a.s.AddClause(l...) }

// guardedAdder appends ¬act to every clause so the whole batch is
// retractable with the single top-level unit ¬act (backend mode).
type guardedAdder struct {
	s        *sat.Solver
	inactive cnf.Lit // the scope's ¬act
}

func (a guardedAdder) NewVar() cnf.Var { return a.s.NewVar() }
func (a guardedAdder) AddClause(l ...cnf.Lit) bool {
	g := make([]cnf.Lit, 0, len(l)+1)
	g = append(g, l...)
	g = append(g, a.inactive)
	return a.s.AddClause(g...)
}

// seqCounter is a sequential-counter (LTSeq) cardinality encoding over a set
// of input literals. sum[i][j] is true iff at least j+1 of the first i+1
// inputs are true. Bounds are activated through assumptions so that the same
// encoding serves every k.
type seqCounter struct {
	s      clauseAdder
	inputs []cnf.Lit
	sum    [][]cnf.Lit // sum[i][j]
}

func newSeqCounter(s clauseAdder, inputs []cnf.Lit) *seqCounter {
	n := len(inputs)
	e := &seqCounter{s: s, inputs: inputs, sum: make([][]cnf.Lit, n)}
	for i := 0; i < n; i++ {
		e.sum[i] = make([]cnf.Lit, i+1)
		for j := 0; j <= i; j++ {
			e.sum[i][j] = cnf.PosLit(s.NewVar())
		}
	}
	for i := 0; i < n; i++ {
		x := inputs[i]
		// sum[i][0] ← x ∨ sum[i-1][0]
		if i == 0 {
			// x → sum[0][0]
			s.AddClause(x.Not(), e.sum[0][0])
			// sum[0][0] → x (exactness not required for ≤k, but keeps the
			// counter tight and the model costs accurate).
			s.AddClause(e.sum[0][0].Not(), x)
			continue
		}
		s.AddClause(x.Not(), e.sum[i][0])
		s.AddClause(e.sum[i-1][0].Not(), e.sum[i][0])
		s.AddClause(e.sum[i][0].Not(), x, e.sum[i-1][0])
		for j := 1; j <= i; j++ {
			if j-1 <= i-1 {
				// x ∧ sum[i-1][j-1] → sum[i][j]
				s.AddClause(x.Not(), e.sum[i-1][j-1].Not(), e.sum[i][j])
			}
			if j <= i-1 {
				s.AddClause(e.sum[i-1][j].Not(), e.sum[i][j])
				s.AddClause(e.sum[i][j].Not(), e.sum[i-1][j], e.sum[i-1][j-1])
			} else {
				// j == i: only way is all of the first i+1 true.
				s.AddClause(e.sum[i][j].Not(), e.sum[i-1][j-1])
				s.AddClause(e.sum[i][j].Not(), x)
			}
		}
	}
	return e
}

// atMost returns assumption literals forcing at most k of the inputs true.
func (e *seqCounter) atMost(k int) []cnf.Lit {
	n := len(e.inputs)
	if k >= n {
		return nil
	}
	// ¬sum[n-1][k] : fewer than k+1 inputs are true.
	return []cnf.Lit{e.sum[n-1][k].Not()}
}
