package dqbf

import (
	"fmt"

	"repro/internal/cnf"
)

// Grounder instantiates the matrix of a DQBF under complete universal
// assignments: the universal expansion that iDQ, full expansion and the
// bounded refuter all decide by. Each existential y is replaced, per
// assignment, by a copy indexed by the assignment's projection onto D_y, so
// two assignments share y's copy exactly when they agree on D_y. The full
// grounding over all 2^|U| assignments is equisatisfiable with the DQBF.
type Grounder struct {
	f      *Formula
	newVar func() cnf.Var
	univ   []int32 // variable → 1 + its position in f.Univ, 0 if not universal
	exist  []int32 // variable → 1 + its position in f.Exist, 0 if not existential
	deps   [][]int // per existential: positions in f.Univ of D_y, ascending by variable
	copies map[Copy]cnf.Var
	cur    []cnf.Var // per existential: its copy under the assignment being grounded, 0 until first use
	proj   []byte
	clause []cnf.Lit
}

// Copy names the copy of existential Y for the projection Proj of a
// universal assignment onto D_Y, rendered as a ProjectionKey.
type Copy struct {
	Y    cnf.Var
	Proj string
}

// NewGrounder prepares f for grounding. Copy variables are allocated
// through newVar, which must return fresh nonzero variables. It fails when a
// matrix variable is unquantified or a dependency is not universal.
func NewGrounder(f *Formula, newVar func() cnf.Var) (*Grounder, error) {
	n := f.Matrix.NumVars
	for _, vs := range [][]cnf.Var{f.Univ, f.Exist} {
		for _, v := range vs {
			n = max(n, int(v))
		}
	}
	g := &Grounder{
		f:      f,
		newVar: newVar,
		univ:   make([]int32, n+1),
		exist:  make([]int32, n+1),
		deps:   make([][]int, len(f.Exist)),
		copies: make(map[Copy]cnf.Var),
		cur:    make([]cnf.Var, len(f.Exist)),
	}
	for i, x := range f.Univ {
		g.univ[x] = int32(i + 1)
	}
	for j, y := range f.Exist {
		g.exist[y] = int32(j + 1)
		for _, d := range f.Deps[y].Vars() {
			if int(d) > n || g.univ[d] == 0 {
				return nil, fmt.Errorf("dqbf: dependency %d of %d is not universal", d, y)
			}
			g.deps[j] = append(g.deps[j], int(g.univ[d]-1))
		}
	}
	for _, c := range f.Matrix.Clauses {
		for _, l := range c {
			if v := int(l.Var()); v > n || g.univ[v] == 0 && g.exist[v] == 0 {
				return nil, fmt.Errorf("dqbf: unquantified variable %d in matrix", v)
			}
		}
	}
	return g, nil
}

// Ground instantiates the matrix clauses in order under the universal
// assignment a, where a[i] is the value of f.Univ[i]. A clause that one of
// its universal literals satisfies is dropped and counted in skipped; every
// other clause is passed to add with its false universal literals removed
// and each existential replaced by its copy (add must not keep the slice).
// Grounding stops, with ok false, at the first clause add rejects. A copy is
// allocated on its first occurrence in clause order, including occurrences
// before the satisfying literal of a dropped clause.
func (g *Grounder) Ground(a []bool, add func([]cnf.Lit) bool) (skipped int, ok bool) {
	clear(g.cur)
	for _, c := range g.f.Matrix.Clauses {
		ground := g.clause[:0]
		satisfied := false
		for _, l := range c {
			v := l.Var()
			if i := g.univ[v]; i != 0 {
				if a[i-1] != l.Neg() {
					satisfied = true
					break
				}
				continue
			}
			ground = append(ground, cnf.NewLit(g.copyOf(int(g.exist[v]-1), a), l.Neg()))
		}
		g.clause = ground
		if satisfied {
			skipped++
			continue
		}
		if !add(ground) {
			return skipped, false
		}
	}
	return skipped, true
}

// copyOf returns the copy of the j-th existential under assignment a.
func (g *Grounder) copyOf(j int, a []bool) cnf.Var {
	if v := g.cur[j]; v != 0 {
		return v
	}
	g.proj = g.proj[:0]
	for _, p := range g.deps[j] {
		g.proj = append(g.proj, bit(a[p]))
	}
	k := Copy{g.f.Exist[j], string(g.proj)}
	v, ok := g.copies[k]
	if !ok {
		v = g.newVar()
		g.copies[k] = v
	}
	g.cur[j] = v
	return v
}

// Copies returns every copy allocated so far, keyed by existential and
// projection. The map is the grounder's own and must not be modified.
func (g *Grounder) Copies() map[Copy]cnf.Var { return g.copies }

// AssignmentKey renders a complete universal assignment in ProjectionKey's
// alphabet, one byte per universal; equal assignments get equal keys.
func AssignmentKey(a []bool) string {
	b := make([]byte, len(a))
	for i, v := range a {
		b[i] = bit(v)
	}
	return string(b)
}

func bit(v bool) byte {
	if v {
		return '1'
	}
	return '0'
}
