package core

import (
	"fmt"
	"sort"

	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/maxsat"
)

// ElimStrategy selects how the set of universal variables to eliminate is
// chosen.
type ElimStrategy int

const (
	// ElimMaxSAT computes a minimum set via partial MaxSAT (the paper's
	// strategy, Equations 1 and 2).
	ElimMaxSAT ElimStrategy = iota
	// ElimGreedy repeatedly picks the universal variable occurring in the
	// most unresolved binary cycles.
	ElimGreedy
	// ElimAll eliminates every universal variable (the ICCD'13 predecessor
	// strategy: reduce all the way to SAT).
	ElimAll
)

func (s ElimStrategy) String() string {
	switch s {
	case ElimMaxSAT:
		return "maxsat"
	case ElimGreedy:
		return "greedy"
	case ElimAll:
		return "all"
	default:
		return fmt.Sprintf("ElimStrategy(%d)", int(s))
	}
}

// SelectEliminationSet returns the universal variables to eliminate so that
// the dependency graph becomes acyclic, according to the strategy.
func SelectEliminationSet(f *dqbf.Formula, strategy ElimStrategy) ([]cnf.Var, error) {
	return selectEliminationSet(f, strategy, nil, nil)
}

// selectEliminationSet is SelectEliminationSet under a cancellable budget
// (the MaxSAT strategy's oracle polls b and the call fails with an error
// wrapping maxsat.ErrBudget when stopped) and with a persistent MaxSAT
// backend (nil keeps the fresh-solver path); selections of one pipeline run
// then share learned clauses across strengthening steps.
func selectEliminationSet(f *dqbf.Formula, strategy ElimStrategy, b *budget.Budget, be *maxsat.Backend) ([]cnf.Var, error) {
	cycles := dqbf.BinaryCycles(f)
	if len(cycles) == 0 {
		return nil, nil
	}
	switch strategy {
	case ElimMaxSAT:
		return selectMaxSAT(f, cycles, b, be)
	case ElimGreedy:
		return selectGreedy(f, cycles)
	case ElimAll:
		return append([]cnf.Var(nil), f.Univ...), nil
	default:
		return nil, fmt.Errorf("core: unknown elimination strategy %v", strategy)
	}
}

// selectMaxSAT builds the partial MaxSAT instance of Equations 1 and 2:
// a selector variable x̂ per universal x (soft clause ¬x̂); for each binary
// cycle {y,y'} the hard constraint (⋀_{x∈D_y∖D_y'} x̂) ∨ (⋀_{x∈D_y'∖D_y} x̂),
// Tseitin-encoded with one auxiliary variable per conjunction.
func selectMaxSAT(f *dqbf.Formula, cycles [][2]cnf.Var, b *budget.Budget, be *maxsat.Backend) ([]cnf.Var, error) {
	m := maxsat.New(0)
	m.Budget = b
	m.Backend = be
	sel := make(map[cnf.Var]cnf.Var) // universal -> selector
	selOf := func(x cnf.Var) cnf.Lit {
		v, ok := sel[x]
		if !ok {
			v = m.NewVar()
			sel[x] = v
			m.AddSoft(cnf.NegLit(v))
		}
		return cnf.PosLit(v)
	}
	conj := func(xs []cnf.Var) cnf.Lit {
		// Tseitin a ↔ ⋀ x̂.
		a := cnf.PosLit(m.NewVar())
		long := make([]cnf.Lit, 0, len(xs)+1)
		long = append(long, a)
		for _, x := range xs {
			s := selOf(x)
			m.AddHard(a.Not(), s)
			long = append(long, s.Not())
		}
		m.AddHard(long...)
		return a
	}
	for _, cy := range cycles {
		y, z := cy[0], cy[1]
		dy := f.Deps[y].Diff(f.Deps[z]).Vars()
		dz := f.Deps[z].Diff(f.Deps[y]).Vars()
		// Both sides are nonempty by construction of a binary cycle.
		a := conj(dy)
		b := conj(dz)
		m.AddHard(a, b)
	}
	res, err := m.Solve()
	if err != nil {
		return nil, fmt.Errorf("core: elimination-set MaxSAT failed: %w", err)
	}
	var out []cnf.Var
	for x, v := range sel {
		if res.Model.Get(v) {
			out = append(out, x)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out, nil
}

// selectGreedy breaks cycles by repeatedly choosing the universal variable
// whose elimination resolves the most remaining binary cycles.
func selectGreedy(f *dqbf.Formula, cycles [][2]cnf.Var) ([]cnf.Var, error) {
	chosen := dqbf.NewVarSet()
	var out []cnf.Var
	unresolved := func(cy [2]cnf.Var) bool {
		dy := f.Deps[cy[0]].Diff(f.Deps[cy[1]]).Diff(chosen)
		dz := f.Deps[cy[1]].Diff(f.Deps[cy[0]]).Diff(chosen)
		return !dy.Empty() && !dz.Empty()
	}
	remaining := append([][2]cnf.Var(nil), cycles...)
	for {
		var open [][2]cnf.Var
		for _, cy := range remaining {
			if unresolved(cy) {
				open = append(open, cy)
			}
		}
		if len(open) == 0 {
			sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
			return out, nil
		}
		counts := make(map[cnf.Var]int)
		for _, cy := range open {
			for _, x := range f.Deps[cy[0]].Diff(f.Deps[cy[1]]).Diff(chosen).Vars() {
				counts[x]++
			}
			for _, x := range f.Deps[cy[1]].Diff(f.Deps[cy[0]]).Diff(chosen).Vars() {
				counts[x]++
			}
		}
		best := cnf.Var(0)
		for x, c := range counts {
			if best == 0 || c > counts[best] || (c == counts[best] && x < best) {
				best = x
			}
		}
		chosen.Add(best)
		out = append(out, best)
		remaining = open
	}
}

// OrderByCopyCost orders the elimination set by the number of existential
// copies an elimination would introduce (|E_x| ascending), the paper's
// ordering heuristic. Ties break by variable index for determinism.
func OrderByCopyCost(f *dqbf.Formula, vars []cnf.Var) []cnf.Var {
	cost := make(map[cnf.Var]int, len(vars))
	for _, x := range vars {
		n := 0
		for _, y := range f.Exist {
			if f.Deps[y].Has(x) {
				n++
			}
		}
		cost[x] = n
	}
	out := append([]cnf.Var(nil), vars...)
	sort.Slice(out, func(i, j int) bool {
		if cost[out[i]] != cost[out[j]] {
			return cost[out[i]] < cost[out[j]]
		}
		return out[i] < out[j]
	})
	return out
}
