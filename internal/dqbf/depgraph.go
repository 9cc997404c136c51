package dqbf

import (
	"cmp"
	"slices"
	"sort"

	"repro/internal/cnf"
)

// BinaryCycles returns the unordered pairs {y,z} with both y→z and z→y —
// by Lemma 1/Theorem 4 the graph is cyclic iff such a pair exists, so these
// pairs characterize all non-linearity in the prefix.
func BinaryCycles(f *Formula) [][2]cnf.Var {
	var out [][2]cnf.Var
	for i, y := range f.Exist {
		for _, z := range f.Exist[i+1:] {
			if !f.Deps[y].SubsetOf(f.Deps[z]) && !f.Deps[z].SubsetOf(f.Deps[y]) {
				out = append(out, [2]cnf.Var{y, z})
			}
		}
	}
	return out
}

// IsCyclic reports whether the dependency graph contains a cycle. By
// Theorem 4 that is so exactly when two dependency sets are incomparable,
// so the graph is acyclic exactly when the sets form a chain under ⊆.
// Sorted by size, a family of sets is a chain exactly when each set is a
// subset of the next, which takes O(E log E) set comparisons instead of
// O(E²).
func IsCyclic(f *Formula) bool {
	type sized struct {
		n int
		s *VarSet
	}
	sets := make([]sized, len(f.Exist))
	for i, y := range f.Exist {
		d := f.Deps[y]
		sets[i] = sized{d.Len(), d}
	}
	slices.SortFunc(sets, func(a, b sized) int { return cmp.Compare(a.n, b.n) })
	for i := 1; i < len(sets); i++ {
		if !sets[i-1].s.SubsetOf(sets[i].s) {
			return true
		}
	}
	return false
}

// HasQBFPrefix reports whether the DQBF admits an equivalent linear (QBF)
// prefix — Theorem 3: iff the dependency graph is acyclic.
func HasQBFPrefix(f *Formula) bool { return !IsCyclic(f) }

// Block is one ∀X ∃Y block pair of a linear prefix. Universals in X precede
// the existentials in Y.
type Block struct {
	Univ  []cnf.Var
	Exist []cnf.Var
}

// Linearize converts an acyclic DQBF prefix into an equivalent QBF prefix,
// following the constructive proof of Theorem 3: existential variables whose
// dependency sets are minimal (no outgoing edges) form the innermost-first
// blocks... ordered outermost-first in the returned slice. Universals are
// distributed so that block i's X_i holds the dependencies not yet
// introduced; a final block carries universals no existential depends on.
// It panics if the prefix is cyclic.
func Linearize(f *Formula) []Block {
	if IsCyclic(f) {
		panic("dqbf: Linearize on cyclic dependency graph")
	}
	remaining := append([]cnf.Var(nil), f.Exist...)
	introduced := NewVarSet()
	var blocks []Block
	for len(remaining) > 0 {
		// Variables with no outgoing edges among the remaining ones:
		// D_y ⊆ D_z for every remaining z.
		var level []cnf.Var
		for _, y := range remaining {
			minimal := true
			for _, z := range remaining {
				if y != z && !f.Deps[y].SubsetOf(f.Deps[z]) {
					minimal = false
					break
				}
			}
			if minimal {
				level = append(level, y)
			}
		}
		if len(level) == 0 {
			panic("dqbf: no minimal variable in acyclic graph")
		}
		// All minimal variables share the same dependency set (they are
		// mutually comparable in both directions).
		deps := f.Deps[level[0]]
		newUniv := deps.Diff(introduced).Vars()
		sort.Slice(newUniv, func(i, j int) bool { return newUniv[i] < newUniv[j] })
		sort.Slice(level, func(i, j int) bool { return level[i] < level[j] })
		blocks = append(blocks, Block{Univ: newUniv, Exist: level})
		for _, v := range newUniv {
			introduced.Add(v)
		}
		levelSet := NewVarSet(level...)
		var rest []cnf.Var
		for _, y := range remaining {
			if !levelSet.Has(y) {
				rest = append(rest, y)
			}
		}
		remaining = rest
	}
	// Trailing universals that no existential depends on.
	var tail []cnf.Var
	for _, x := range f.Univ {
		if !introduced.Has(x) {
			tail = append(tail, x)
		}
	}
	if len(tail) > 0 {
		blocks = append(blocks, Block{Univ: tail})
	}
	return blocks
}
