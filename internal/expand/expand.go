// Package expand implements DQBF solving by full universal expansion:
// the matrix is instantiated for every assignment of the universal
// variables, with each existential variable y replaced per instance by a
// copy indexed by the projection of the assignment onto D_y (so instances
// agreeing on D_y share the copy), and the resulting propositional formula
// is handed to the CDCL SAT solver.
//
// The expansion is the semantic definition made executable — the full
// grounding is equisatisfiable with the DQBF — and doubles as the
// conceptual limit case of both elimination (eliminating *every* universal
// variable, the ICCD 2013 predecessor strategy the paper improves on) and
// instantiation (iDQ with eager instead of lazy grounding). It is
// exponential in the number of universals and serves as a reference solver
// for cross-checking and as an ablation baseline.
package expand

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/budget"
	"repro/internal/cert"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/sat"
)

// MaxUniversals is the largest universal count Solve expands.
const MaxUniversals = 20

// ErrTooManyUniversals is the refusal of a formula with more than
// MaxUniversals universals: its expansion would be too large.
var ErrTooManyUniversals = errors.New("expand: too many universal variables")

// Options configure the solver.
type Options struct {
	// Budget, when non-nil, bounds the expansion loop and the SAT call and
	// makes them cancellable; exhaustion surfaces as an error wrapping the
	// budget's sentinel.
	Budget *budget.Budget
	// Certify lowers the SAT model's copy values to a Skolem certificate on
	// a satisfiable verdict.
	Certify bool
}

// Stats collects counters.
type Stats struct {
	Instances      int // universal assignments expanded
	Copies         int // existential copies created
	GroundClauses  int
	SATConflicts   int64
	TotalTime      time.Duration
	SkippedClauses int // clause instances satisfied by universal literals
}

// Result is the outcome of a Solve call.
type Result struct {
	Sat   bool
	Stats Stats
	// Certificate holds the Skolem functions of a certified SAT verdict
	// (Options.Certify): each existential is true exactly on the
	// projections whose copy the model sets. Nil otherwise.
	Certificate *cert.Certificate
}

// Solver decides DQBF by eager full expansion.
type Solver struct {
	Opt Options
}

// New returns a solver with the given options.
func New(opt Options) *Solver { return &Solver{Opt: opt} }

// Solve decides the DQBF. It returns an error wrapping ErrTooManyUniversals
// beyond MaxUniversals, one wrapping the budget's sentinel when the budget
// stops the solve, and one for unquantified variables.
func (s *Solver) Solve(f *dqbf.Formula) (Result, error) {
	start := time.Now()
	res := Result{}
	defer func() { res.Stats.TotalTime = time.Since(start) }()

	if len(f.Univ) > MaxUniversals {
		return res, fmt.Errorf("%w: %d exceed limit %d", ErrTooManyUniversals, len(f.Univ), MaxUniversals)
	}

	solver := sat.New()
	solver.Budget = s.Opt.Budget
	g, err := dqbf.NewGrounder(f, func() cnf.Var {
		res.Stats.Copies++
		return solver.NewVar()
	})
	if err != nil {
		return res, fmt.Errorf("expand: %w", err)
	}
	add := func(c []cnf.Lit) bool {
		res.Stats.GroundClauses++
		return solver.AddClause(c...)
	}

	n := len(f.Univ)
	a := make([]bool, n)
	for bits := 0; bits < 1<<n; bits++ {
		if err := s.Opt.Budget.Err(); err != nil {
			return res, fmt.Errorf("expand: stopped after %d of %d instances: %w", bits, 1<<n, err)
		}
		for i := range a {
			a[i] = bits&(1<<i) != 0
		}
		res.Stats.Instances++
		skipped, ok := g.Ground(a, add)
		res.Stats.SkippedClauses += skipped
		if !ok {
			return res, nil
		}
	}
	st, err := solver.Solve(nil, nil)
	res.Stats.SATConflicts = solver.Stats.Conflicts
	if st == sat.Unknown {
		return res, fmt.Errorf("expand: ground SAT call stopped: %w", err)
	}
	res.Sat = st == sat.Sat
	if res.Sat && s.Opt.Certify {
		m := solver.Model()
		points := make(map[cnf.Var][]string)
		for k, v := range g.Copies() {
			if m.Get(v) {
				points[k.Y] = append(points[k.Y], k.Proj)
			}
		}
		res.Certificate = cert.FromTruePoints(f, points)
	}
	return res, nil
}
