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

// ErrTooManyUniversals is the refusal of a formula whose universal count
// exceeds Options.MaxUniversals: its expansion would be too large.
var ErrTooManyUniversals = errors.New("expand: too many universal variables")

// Options configure the solver.
type Options struct {
	// MaxUniversals refuses formulas whose expansion would be too large;
	// 0 means the default of 20.
	MaxUniversals int
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

// copyKey names the copy of existential y for the projection proj of the
// universal assignment onto D_y (a dqbf.ProjectionKey).
type copyKey struct {
	y    cnf.Var
	proj string
}

// Solve decides the DQBF. It returns an error wrapping ErrTooManyUniversals
// when the expansion limit is exceeded, one wrapping the budget's sentinel
// when the budget stops the solve, and one for unquantified variables.
func (s *Solver) Solve(f *dqbf.Formula) (Result, error) {
	start := time.Now()
	res := Result{}
	defer func() { res.Stats.TotalTime = time.Since(start) }()

	limit := s.Opt.MaxUniversals
	if limit <= 0 {
		limit = 20
	}
	if len(f.Univ) > limit {
		return res, fmt.Errorf("%w: %d exceed limit %d", ErrTooManyUniversals, len(f.Univ), limit)
	}

	solver := sat.New()
	solver.Budget = s.Opt.Budget
	uidx := make(map[cnf.Var]int, len(f.Univ))
	for i, x := range f.Univ {
		uidx[x] = i
	}
	copies := make(map[copyKey]cnf.Var)
	copyOf := func(y cnf.Var, a []bool) cnf.Var {
		k := copyKey{y, dqbf.ProjectionKey(f.Deps[y].Vars(), func(d cnf.Var) bool { return a[uidx[d]] })}
		v, ok := copies[k]
		if !ok {
			v = solver.NewVar()
			copies[k] = v
			res.Stats.Copies++
		}
		return v
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
		for _, c := range f.Matrix.Clauses {
			ground := make([]cnf.Lit, 0, len(c))
			satisfied := false
			for _, l := range c {
				v := l.Var()
				if idx, isU := uidx[v]; isU {
					if a[idx] != l.Neg() {
						satisfied = true
						break
					}
					continue
				}
				if !f.IsExistential(v) {
					return res, fmt.Errorf("expand: unquantified variable %d", v)
				}
				ground = append(ground, cnf.NewLit(copyOf(v, a), l.Neg()))
			}
			if satisfied {
				res.Stats.SkippedClauses++
				continue
			}
			res.Stats.GroundClauses++
			if len(ground) == 0 || !solver.AddClause(ground...) {
				res.Sat = false
				return res, nil
			}
		}
	}
	st := solver.Solve()
	res.Stats.SATConflicts = solver.Stats.Conflicts
	if st == sat.Unknown {
		err := s.Opt.Budget.Err()
		if err == nil {
			err = fmt.Errorf("expand: SAT call stopped")
		}
		return res, fmt.Errorf("expand: ground SAT call stopped: %w", err)
	}
	res.Sat = st == sat.Sat
	if res.Sat && s.Opt.Certify {
		m := solver.Model()
		points := make(map[cnf.Var][]string)
		for k, v := range copies {
			if m.Get(v) {
				points[k.y] = append(points[k.y], k.proj)
			}
		}
		res.Certificate = cert.FromTruePoints(f, points)
	}
	return res, nil
}
