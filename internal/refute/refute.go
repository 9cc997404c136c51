// Package refute implements an incomplete DQBF refutation procedure in the
// spirit of Finkbeiner and Tentrup's "Fast DQBF Refutation" (SAT 2014), the
// third related approach the paper discusses: instead of deciding the
// formula, it grounds the matrix over a *bounded* pool of universal
// assignments — if that partial expansion is already propositionally
// unsatisfiable, the DQBF is unsatisfied; otherwise the answer is
// inconclusive (unless the pool happened to cover all assignments, in which
// case satisfiability follows from the full-expansion theorem).
//
// The pool holds at most MaxAssignments distinct assignments: structured
// patterns (all-zero, all-one, one-hot, one-cold) first, then a
// deterministic pseudo-random sequence. The patterns refute typical PEC
// inequivalences with a handful of instances. The paper notes that iDQ often refutes instances with a single
// SAT call; this package isolates exactly that effect.
package refute

import (
	"time"

	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/sat"
)

// Verdict is the three-valued outcome of a refutation attempt.
type Verdict int

// Possible outcomes: refuted (UNSAT proven), satisfied (the pool covered the
// full expansion and it is SAT), or inconclusive.
const (
	Inconclusive Verdict = iota
	Refuted
	Satisfied
)

func (v Verdict) String() string {
	switch v {
	case Refuted:
		return "REFUTED"
	case Satisfied:
		return "SATISFIED"
	default:
		return "INCONCLUSIVE"
	}
}

// MaxAssignments bounds the pool of universal assignments a refutation
// grounds.
const MaxAssignments = 256

// Stats collects counters.
type Stats struct {
	Assignments int
	SATCalls    int
	Ground      int
	TotalTime   time.Duration
}

// Result is the outcome of a Refute call.
type Result struct {
	Verdict Verdict
	Stats   Stats
}

// Refute attempts to disprove the DQBF with a bounded expansion. It panics
// on a matrix variable that is not quantified.
func Refute(f *dqbf.Formula) (res Result) {
	start := time.Now()
	defer func() { res.Stats.TotalTime = time.Since(start) }()

	n := len(f.Univ)
	full := 0
	if n < 30 {
		full = 1 << n
	}

	solver := sat.New()
	g, err := dqbf.NewGrounder(f, solver.NewVar)
	if err != nil {
		panic(err)
	}
	add := func(c []cnf.Lit) bool {
		res.Stats.Ground++
		return solver.AddClause(c...)
	}

	seen := make(map[string]bool)
	addAssignment := func(a []bool) bool {
		key := dqbf.AssignmentKey(a)
		if seen[key] {
			return true
		}
		seen[key] = true
		res.Stats.Assignments++
		_, ok := g.Ground(a, add)
		return ok
	}

	// Structured patterns first, then a pseudo-random sequence.
	gen := newGen(n)
	for res.Stats.Assignments < MaxAssignments && len(seen) != full {
		a, ok := gen.next()
		if !ok {
			break
		}
		if !addAssignment(a) {
			res.Verdict = Refuted
			return res
		}
		// Periodic refutation check (every assignment keeps the solver
		// incremental and cheap).
		res.Stats.SATCalls++
		if st, _ := solver.Solve(nil, nil); st == sat.Unsat {
			res.Verdict = Refuted
			return res
		}
	}
	if full > 0 && len(seen) == full {
		// The pool covered the complete expansion: the last SAT call proved
		// the full grounding satisfiable, so the DQBF is satisfied.
		res.Verdict = Satisfied
	}
	return res
}

// gen enumerates universal assignments: all-zero, all-one, one-hot,
// one-cold, then xorshift pseudo-random vectors.
type gen struct {
	n     int // number of universals
	stage int
	idx   int
	state uint64
	emit  int
}

func newGen(n int) *gen {
	return &gen{n: n, state: 0x9e3779b97f4a7c15}
}

// next returns the next assignment over the universals in prefix order, and
// false once the random phase has almost surely covered all of them.
func (g *gen) next() ([]bool, bool) {
	n := g.n
	a := make([]bool, n)
	switch g.stage {
	case 0:
		g.stage++
		return a, true // all-zero
	case 1:
		for i := range a {
			a[i] = true
		}
		g.stage++
		return a, true
	case 2: // one-hot
		if g.idx < n {
			a[g.idx] = true
			g.idx++
			return a, true
		}
		g.stage++
		g.idx = 0
		fallthrough
	case 3: // one-cold
		if g.idx < n {
			for i := range a {
				a[i] = i != g.idx
			}
			g.idx++
			return a, true
		}
		g.stage++
		fallthrough
	default:
		if n < 30 && g.emit > 4<<uint(n) {
			return nil, false // random phase has almost surely covered everything
		}
		g.emit++
		// One fresh xorshift word per 64 universals.
		for i := range a {
			if i%64 == 0 {
				g.state ^= g.state << 13
				g.state ^= g.state >> 7
				g.state ^= g.state << 17
			}
			a[i] = g.state&(1<<uint(i%64)) != 0
		}
		return a, true
	}
}
