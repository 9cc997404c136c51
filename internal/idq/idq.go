// Package idq implements an instantiation-based DQBF solver in the spirit of
// iDQ (Fröhlich et al., POS 2014), the baseline HQS is compared against in
// the paper's evaluation.
//
// iDQ grounds the DQBF clause-wise using Inst-Gen; this reproduction uses the
// same algorithmic family — lazy grounding of the universal expansion driven
// by a SAT oracle — in its counterexample-guided form:
//
//  1. Maintain a set A of universal assignments. The abstraction is the SAT
//     formula ⋀_{a∈A} φ[x:=a] where each existential y is replaced by an
//     instantiation variable y@(a|D_y) — two assignments share an
//     instantiation variable exactly when they agree on D_y, which encodes
//     the dependency restrictions (the full expansion over all a is
//     equisatisfiable with the DQBF).
//  2. If the abstraction is unsatisfiable, so is the DQBF.
//  3. Otherwise the abstraction model induces partial Skolem tables
//     (default 0 off-table). A verification SAT call searches for a
//     universal assignment falsifying the matrix under those tables; if none
//     exists the DQBF is satisfied, otherwise the counterexample joins A and
//     the loop repeats. Every counterexample is new, so the loop terminates
//     after at most 2^|U| refinements.
//
// Like iDQ, the solver is cheap on instances refuted by a few instantiations
// and degrades exponentially when many universal assignments must be
// enumerated — the qualitative behaviour Table I and Fig. 4 report.
package idq

import (
	"errors"
	"fmt"
	"sort"
	"time"

	"repro/internal/budget"
	"repro/internal/cert"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/faults"
	"repro/internal/sat"
)

// Status mirrors the solver outcome classification of package core.
type Status int

const (
	// Solved means a definitive verdict was reached.
	Solved Status = iota
	// Timeout means the wall-clock budget was exhausted.
	Timeout
	// Memout means the instantiation budget was exhausted.
	Memout
	// Cancelled means the budget was cancelled (or a conflict/decision cap
	// was exhausted) before a verdict, or an oracle gave up spuriously.
	Cancelled
	// Failed means an oracle failed for another reason; Result.Err says why.
	Failed
)

func (s Status) String() string {
	switch s {
	case Solved:
		return "solved"
	case Timeout:
		return "timeout"
	case Memout:
		return "memout"
	case Cancelled:
		return "cancelled"
	case Failed:
		return "error"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options configure the solver.
type Options struct {
	// MaxInstantiations bounds the number of instantiated clauses in the
	// abstraction (the analogue of iDQ's memory-outs); 0 means unlimited.
	MaxInstantiations int
	// Budget, when non-nil, bounds the solve: the instantiation loop and
	// both SAT oracles (abstraction and verification) poll it, so a stop
	// interrupts a running CDCL search, not just the next refinement. Status
	// is Timeout on its deadline, Cancelled otherwise. Nil means unlimited.
	Budget *budget.Budget
}

// Stats collects counters.
type Stats struct {
	Iterations     int
	Instantiations int
	AbstractionSAT int // abstraction oracle calls
	VerifySAT      int // verification oracle calls
	TableEntries   int
	TotalTime      time.Duration
}

// Result is the outcome of a Solve call.
type Result struct {
	Status Status
	Sat    bool
	Stats  Stats
	// Err is the oracle's error when Status is Failed (nil otherwise).
	Err error
	// Certificate holds the Skolem functions witnessing a Sat verdict (nil
	// otherwise): the final tables with every off-table projection false,
	// which is certified because any off-table completion is valid. It can
	// be checked independently with cert.Check.
	Certificate *cert.Certificate
}

// Solver is the instantiation-based DQBF solver.
type Solver struct {
	Opt Options
}

// New returns a solver with the given options.
func New(opt Options) *Solver { return &Solver{Opt: opt} }

// Solve decides the DQBF. The input is not modified. It panics on a matrix
// variable that is not quantified.
func (s *Solver) Solve(f *dqbf.Formula) (res Result) {
	start := time.Now()
	defer func() { res.Stats.TotalTime = time.Since(start) }()

	// stopped reports whether the solve must stop, and sets its status:
	// Timeout on the budget's deadline and Cancelled on any other budget
	// stop; otherwise, after an oracle stopped with err, Cancelled on a
	// spurious Unknown and Failed on any other error.
	stopped := func(err error) bool {
		switch berr := s.Opt.Budget.Err(); {
		case errors.Is(berr, budget.ErrDeadline):
			res.Status = Timeout
		case berr != nil, errors.Is(err, faults.ErrUnknown):
			res.Status = Cancelled
		case err != nil:
			res.Status, res.Err = Failed, fmt.Errorf("idq: SAT oracle failed: %w", err)
		default:
			return false
		}
		return true
	}

	abs := sat.New()
	abs.Budget = s.Opt.Budget
	g, err := dqbf.NewGrounder(f, abs.NewVar)
	if err != nil {
		panic(err)
	}
	// add puts one grounded clause into the abstraction; false means the
	// abstraction became unsatisfiable.
	add := func(c []cnf.Lit) bool {
		res.Stats.Instantiations++
		return abs.AddClause(c...)
	}
	seen := make(map[string]bool) // guard against repeated counterexamples

	for {
		res.Stats.Iterations++
		if stopped(nil) {
			return res
		}
		if s.Opt.MaxInstantiations > 0 && res.Stats.Instantiations > s.Opt.MaxInstantiations {
			res.Status = Memout
			return res
		}

		// Step 1: abstraction.
		res.Stats.AbstractionSAT++
		st, err := abs.Solve(nil, nil)
		if st == sat.Unknown { // always with an error
			stopped(err)
			return res
		}
		if st == sat.Unsat {
			res.Status = Solved
			res.Sat = false
			return res
		}
		model := abs.Model()

		// Step 2: build candidate Skolem tables from the model.
		tables := make(map[cnf.Var]map[string]bool)
		for k, v := range g.Copies() {
			t := tables[k.Y]
			if t == nil {
				t = make(map[string]bool)
				tables[k.Y] = t
			}
			t[k.Proj] = model != nil && model.Get(v)
		}
		res.Stats.TableEntries = len(g.Copies())

		// Step 3: verification — search a universal assignment falsifying
		// the matrix under the tables.
		cex, found, err := s.verify(f, tables)
		res.Stats.VerifySAT++
		if err != nil {
			stopped(err)
			return res
		}
		if !found {
			res.Status = Solved
			res.Sat = true
			points := make(map[cnf.Var][]string, len(tables))
			for y, tab := range tables {
				for k, v := range tab {
					if v {
						points[y] = append(points[y], k)
					}
				}
			}
			res.Certificate = cert.FromTruePoints(f, points)
			return res
		}
		k := dqbf.AssignmentKey(cex)
		if seen[k] {
			// Cannot happen for a correct abstraction; guards nontermination.
			panic("idq: repeated counterexample " + k)
		}
		seen[k] = true
		if _, ok := g.Ground(cex, add); !ok {
			res.Status = Solved
			res.Sat = false
			return res
		}
	}
}

// verify searches for a universal assignment under which the matrix is
// falsified when every existential follows its candidate table. Table
// entries pin the existential's value via one implication clause each
// (match_p → y = v); projections outside the table are unconstrained — any
// per-projection completion is a legal Skolem function, so a verification
// failure on a free entry is a genuine refinement direction, and an
// unsatisfiable query proves every completion of the tables correct. The
// counterexample is given over f.Univ order. The error is the oracle's when
// the query stopped before a verdict (the first two values are then
// meaningless).
func (s *Solver) verify(f *dqbf.Formula, tables map[cnf.Var]map[string]bool) ([]bool, bool, error) {
	vs := sat.New()
	vs.Budget = s.Opt.Budget
	vmap := make(map[cnf.Var]cnf.Var) // original var -> verification SAT var
	varOf := func(v cnf.Var) cnf.Var {
		w, ok := vmap[v]
		if !ok {
			w = vs.NewVar()
			vmap[v] = w
		}
		return w
	}
	litOf := func(l cnf.Lit) cnf.Lit {
		return cnf.NewLit(varOf(l.Var()), l.Neg())
	}
	// Allocate universal variables up front so the model covers them even
	// when a universal occurs in no clause or dependency set.
	for _, x := range f.Univ {
		varOf(x)
	}

	// One clause per table entry: (¬match_p ∨ y=v).
	for _, y := range f.Exist {
		deps := f.Deps[y].Vars()
		yl := cnf.PosLit(varOf(y))
		tab := tables[y]
		keys := make([]string, 0, len(tab))
		for k := range tab {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			c := make([]cnf.Lit, 0, len(deps)+1)
			for i, d := range deps {
				// ¬match: some dependency literal differs from p.
				c = append(c, cnf.NewLit(varOf(d), k[i] == '1'))
			}
			c = append(c, yl.XorSign(!tab[k]))
			vs.AddClause(c...)
		}
	}

	// Encode "some clause is violated": selector per clause.
	sel := make([]cnf.Lit, 0, len(f.Matrix.Clauses))
	for _, c := range f.Matrix.Clauses {
		sl := cnf.PosLit(vs.NewVar())
		for _, l := range c {
			vs.AddClause(sl.Not(), litOf(l).Not())
		}
		sel = append(sel, sl)
	}
	if len(sel) == 0 {
		return nil, false, nil // empty matrix is a tautology
	}
	vs.AddClause(sel...)

	switch st, err := vs.Solve(nil, nil); st {
	case sat.Unknown:
		return nil, false, err
	case sat.Sat:
	default:
		return nil, false, nil
	}
	model := vs.Model()
	a := make([]bool, len(f.Univ))
	for i, x := range f.Univ {
		a[i] = model.Get(varOf(x))
	}
	return a, true, nil
}
