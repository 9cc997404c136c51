// Package pqe implements partial quantifier elimination (PQE) in the sense
// of Goldberg's PQE line of work: given ∃X[F ∧ G] over free variables Y,
// take F out of the quantifier scope — compute a clause set Q over Y with
//
//	Q ∧ ∃X[G] ≡ ∃X[F ∧ G].
//
// PQE is the cheap, high-volume query primitive of the stack: unlike full
// quantifier elimination it only has to account for the part of the search
// space where F changes the answer, which in practice is a handful of SAT
// calls per query.
//
// The algorithm is a model-enumeration CEGAR loop built on the incremental
// CDCL oracle (internal/sat):
//
//	enum    holds G ∧ Q plus blocking clauses — its models are the Y
//	        assignments still claiming "∃X G but Q doesn't rule me out".
//	checker holds F ∧ G.
//
// Each round asks enum for a model, restricts it to Y, and asks the checker
// whether F ∧ G is satisfiable under that Y assignment. If it is, the Y
// assignment belongs to both sides and is blocked in enum only. If it is
// not, the checker's failed-assumption core — which IS a clause over Y
// implied by F ∧ G (sat.FailedAssumptions returns the negated assumptions)
// — joins Q and the enum solver. Every round eliminates at least one Y
// assignment, so the loop terminates; when enum is UNSAT, Q is exact.
package pqe

import (
	"errors"
	"fmt"

	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/faults"
	"repro/internal/problem"
	"repro/internal/sat"
	"repro/internal/trace"
)

// ErrRounds reports that Options.MaxRounds stopped the loop before the
// clause set converged.
var ErrRounds = errors.New("pqe: round limit exceeded")

// Options configure one PQE query.
type Options struct {
	// Budget, when non-nil, makes the query cancellable: every SAT call
	// meters into and polls it.
	Budget *budget.Budget
	// Trace, when non-nil, receives one event per enumeration round.
	Trace trace.Sink
	// MaxRounds bounds the number of enumeration rounds (0 = unbounded; the
	// loop always terminates, but on large free-variable spaces the bound
	// turns a long query into a clean error).
	MaxRounds int
}

// Result is the answer of a PQE query.
type Result struct {
	// Q is the computed clause set over the free variables: Q ∧ ∃X[G] is
	// equivalent to ∃X[F ∧ G]. An empty Q means F adds nothing outside the
	// quantifier scope; a Q containing the empty clause means F ∧ G is
	// unsatisfiable.
	Q []cnf.Clause
	// Rounds counts enumeration rounds, SATCalls the oracle queries, and
	// Blocked the Y assignments found on both sides (blocked, not learned).
	Rounds   int
	SATCalls int
	Blocked  int
}

// Solve answers the PQE query q. It returns an error when the budget stops
// the query (the budget's reason), when the round limit trips (ErrRounds),
// or when the "pqe.solve" fault point injects a failure.
func Solve(q *problem.PQESplit, opt Options) (*Result, error) {
	if err := opt.Budget.Faults().Fire(faults.PQESolve); err != nil {
		return nil, fmt.Errorf("pqe: %w", err)
	}
	if err := q.Validate(); err != nil {
		return nil, err
	}
	yVars := q.FreeVars()

	newSolver := func() *sat.Solver {
		s := sat.New()
		s.Budget = opt.Budget
		s.EnsureVars(q.NumVars)
		return s
	}
	addClauses := func(s *sat.Solver, cs []cnf.Clause) {
		for _, c := range cs {
			s.AddClause(c...)
		}
	}
	enum := newSolver()
	addClauses(enum, q.G)
	checker := newSolver()
	addClauses(checker, q.F)
	addClauses(checker, q.G)

	res := &Result{}
	emit := func(changed bool, learned int) {
		if opt.Trace == nil {
			return
		}
		opt.Trace.Emit(trace.Event{
			Stage: "pqe", Pass: "pqe-round", Seq: res.Rounds, Changed: changed,
			Counters: map[string]int64{
				"q_clauses": int64(len(res.Q)),
				"blocked":   int64(res.Blocked),
				"sat_calls": int64(res.SATCalls),
				"learned":   int64(learned),
			},
		})
	}

	for {
		// The oracle only polls the budget during search, which trivial
		// queries never enter — poll once per round so cancellation and
		// deadlines are honored regardless of instance size.
		if opt.Budget != nil {
			if err := opt.Budget.Err(); err != nil {
				return res, err
			}
		}
		if opt.MaxRounds > 0 && res.Rounds >= opt.MaxRounds {
			return res, ErrRounds
		}
		res.Rounds++

		res.SATCalls++
		st, err := enum.SolveErr(nil)
		if err != nil {
			return res, err
		}
		if st == sat.Unsat {
			emit(false, 0)
			return res, nil
		}
		model := enum.Model()
		assumps := make([]cnf.Lit, 0, len(yVars))
		for _, v := range yVars {
			if model.Get(v) {
				assumps = append(assumps, cnf.PosLit(v))
			} else {
				assumps = append(assumps, cnf.NegLit(v))
			}
		}

		res.SATCalls++
		st, err = checker.SolveErr(assumps)
		if err != nil {
			return res, err
		}
		if st == sat.Sat {
			// This Y assignment satisfies ∃X[F ∧ G], so Q must keep it:
			// exclude it from enumeration only.
			res.Blocked++
			block := make([]cnf.Lit, len(assumps))
			for i, a := range assumps {
				block[i] = a.Not()
			}
			emit(true, 0)
			if !enum.AddClause(block...) {
				return res, nil // enum hit a root conflict: enumeration done
			}
			continue
		}
		// F ∧ G is UNSAT under this Y assignment. The failed-assumption set
		// is a subset of the negated assumptions — directly a clause over Y
		// implied by F ∧ G — and it rules this assignment (at least) out.
		core := append([]cnf.Lit(nil), checker.FailedAssumptions()...)
		res.Q = append(res.Q, core)
		emit(true, 1)
		if len(core) == 0 {
			// UNSAT independent of the assumptions: F ∧ G itself is
			// unsatisfiable and Q is {∅}.
			return res, nil
		}
		if !enum.AddClause(core...) {
			return res, nil
		}
	}
}

// VerifyResult checks a PQE answer exhaustively over the free variables:
// for every Y assignment, Q(y) ∧ ∃X[G(y)] must agree with ∃X[(F ∧ G)(y)].
// It is exponential in |Y| and exists for tests and certification of small
// queries; it returns nil when the answer is exact.
func VerifyResult(q *problem.PQESplit, Q []cnf.Clause) error {
	yVars := q.FreeVars()
	if len(yVars) > 20 {
		return fmt.Errorf("pqe: %d free variables is too many to verify exhaustively", len(yVars))
	}
	for _, c := range Q {
		for _, l := range c {
			for _, x := range q.X {
				if l.Var() == x {
					return fmt.Errorf("pqe: answer clause %v mentions quantified variable %d", c, x)
				}
			}
		}
	}
	satUnder := func(cs [][]cnf.Clause, assumps []cnf.Lit) (bool, error) {
		s := sat.New()
		s.EnsureVars(q.NumVars)
		for _, set := range cs {
			for _, c := range set {
				s.AddClause(c...)
			}
		}
		st, err := s.SolveErr(assumps)
		if err != nil {
			return false, err
		}
		return st == sat.Sat, nil
	}
	n := len(yVars)
	for bits := 0; bits < 1<<n; bits++ {
		assumps := make([]cnf.Lit, n)
		for i, v := range yVars {
			if bits&(1<<i) != 0 {
				assumps[i] = cnf.PosLit(v)
			} else {
				assumps[i] = cnf.NegLit(v)
			}
		}
		lhs, err := satUnder([][]cnf.Clause{Q, q.G}, assumps)
		if err != nil {
			return err
		}
		rhs, err := satUnder([][]cnf.Clause{q.F, q.G}, assumps)
		if err != nil {
			return err
		}
		if lhs != rhs {
			return fmt.Errorf("pqe: Q ∧ ∃X[G] = %v but ∃X[F ∧ G] = %v under %v", lhs, rhs, assumps)
		}
	}
	return nil
}
