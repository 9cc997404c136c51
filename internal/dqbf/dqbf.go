// Package dqbf provides the representation of dependency quantified Boolean
// formulas (DQBF): a Henkin quantifier prefix — universal variables plus
// existential variables with explicit dependency sets — over a CNF matrix.
//
// It implements the prefix-analysis machinery of the paper: the dependency
// graph of Definition 4, the acyclicity criterion of Theorem 3 (a DQBF has an
// equivalent QBF prefix iff its dependency graph is acyclic), the binary-cycle
// characterization of Lemma 1/Theorem 4, the QBF-prefix linearization used
// once HQS has broken all cycles, reading and writing of the DQDIMACS format,
// and a brute-force decision procedure (Skolem-table enumeration) that serves
// as ground truth in tests.
package dqbf

import (
	"fmt"
	"sort"

	"repro/internal/cnf"
)

// Formula is a DQBF: ∀x1..∀xn ∃y1(D_y1)..∃ym(D_ym) : matrix.
type Formula struct {
	// Univ lists the universal variables in prefix order.
	Univ []cnf.Var
	// Exist lists the existential variables in prefix order.
	Exist []cnf.Var
	// Deps maps each existential variable to its dependency set.
	Deps map[cnf.Var]*VarSet
	// Matrix is the CNF matrix. Matrix.NumVars bounds all prefix variables.
	Matrix *cnf.Formula
}

// New returns an empty DQBF with an empty matrix.
func New() *Formula {
	return &Formula{
		Deps:   make(map[cnf.Var]*VarSet),
		Matrix: cnf.NewFormula(0),
	}
}

// AddUniversal appends a universal variable to the prefix.
func (f *Formula) AddUniversal(v cnf.Var) {
	f.Univ = append(f.Univ, v)
	if int(v) > f.Matrix.NumVars {
		f.Matrix.NumVars = int(v)
	}
}

// AddExistential appends an existential variable with the given dependency
// set (which is copied).
func (f *Formula) AddExistential(v cnf.Var, deps ...cnf.Var) {
	f.Exist = append(f.Exist, v)
	f.Deps[v] = NewVarSet(deps...)
	if int(v) > f.Matrix.NumVars {
		f.Matrix.NumVars = int(v)
	}
}

// IsUniversal reports whether v is universally quantified.
func (f *Formula) IsUniversal(v cnf.Var) bool {
	for _, u := range f.Univ {
		if u == v {
			return true
		}
	}
	return false
}

// IsExistential reports whether v is existentially quantified.
func (f *Formula) IsExistential(v cnf.Var) bool {
	_, ok := f.Deps[v]
	return ok
}

// UniversalSet returns the universal variables as a VarSet.
func (f *Formula) UniversalSet() *VarSet {
	return NewVarSet(f.Univ...)
}

// Remove deletes v from the prefix: a universal leaves every dependency
// set, an existential leaves the prefix with its dependency set.
func (f *Formula) Remove(v cnf.Var) {
	for i, u := range f.Univ {
		if u == v {
			f.Univ = append(f.Univ[:i], f.Univ[i+1:]...)
			for _, d := range f.Deps {
				d.Remove(v)
			}
			return
		}
	}
	for i, y := range f.Exist {
		if y == v {
			f.Exist = append(f.Exist[:i], f.Exist[i+1:]...)
			delete(f.Deps, v)
			return
		}
	}
}

// RetainSupport drops every prefix variable outside support (universals
// leave the dependency sets as well) and returns how many were dropped.
func (f *Formula) RetainSupport(support map[cnf.Var]bool) int {
	removed := 0
	var exist []cnf.Var
	for _, y := range f.Exist {
		if support[y] {
			exist = append(exist, y)
		} else {
			delete(f.Deps, y)
			removed++
		}
	}
	f.Exist = exist
	var univ []cnf.Var
	for _, x := range f.Univ {
		if support[x] {
			univ = append(univ, x)
			continue
		}
		for _, d := range f.Deps {
			d.Remove(x)
		}
		removed++
	}
	f.Univ = univ
	return removed
}

// Clone returns a deep copy of the formula.
func (f *Formula) Clone() *Formula {
	g := New()
	g.Univ = append([]cnf.Var(nil), f.Univ...)
	g.Exist = append([]cnf.Var(nil), f.Exist...)
	for v, d := range f.Deps {
		g.Deps[v] = d.Clone()
	}
	g.Matrix = f.Matrix.Clone()
	return g
}

// Validate checks structural invariants: disjoint quantifier sets,
// dependencies drawn from the universals, matrix variables all quantified
// (free matrix variables are reported as an error).
func (f *Formula) Validate() error {
	uni := NewVarSet(f.Univ...)
	exi := NewVarSet(f.Exist...)
	if len(f.Univ) != uni.Len() {
		return fmt.Errorf("dqbf: duplicate universal variable")
	}
	if len(f.Exist) != exi.Len() {
		return fmt.Errorf("dqbf: duplicate existential variable")
	}
	if !uni.intersect(exi).Empty() {
		return fmt.Errorf("dqbf: variable quantified both ways: %v", uni.intersect(exi))
	}
	for _, y := range f.Exist {
		d, ok := f.Deps[y]
		if !ok {
			return fmt.Errorf("dqbf: existential %d has no dependency set", y)
		}
		if !d.SubsetOf(uni) {
			return fmt.Errorf("dqbf: dependency set of %d contains non-universals: %v", y, d.Diff(uni))
		}
	}
	for i, c := range f.Matrix.Clauses {
		for _, l := range c {
			v := l.Var()
			if !uni.Has(v) && !exi.Has(v) {
				return fmt.Errorf("dqbf: clause %d uses unquantified variable %d", i, v)
			}
		}
	}
	return nil
}

// String renders the prefix in a compact human-readable form.
func (f *Formula) String() string {
	s := "∀" + fmt.Sprint(f.Univ)
	ex := append([]cnf.Var(nil), f.Exist...)
	sort.Slice(ex, func(i, j int) bool { return ex[i] < ex[j] })
	for _, y := range ex {
		s += fmt.Sprintf(" ∃%d%s", y, f.Deps[y])
	}
	return s + fmt.Sprintf(" : %d clauses", len(f.Matrix.Clauses))
}

// ProjectionKey renders the projection of a universal assignment onto the
// ordered dependency set: one byte '0' or '1' per dependency variable in
// ascending variable order. It names one entry of a Skolem truth table.
func ProjectionKey(deps []cnf.Var, value func(cnf.Var) bool) string {
	b := make([]byte, len(deps))
	for i, d := range deps {
		b[i] = bit(value(d))
	}
	return string(b)
}
