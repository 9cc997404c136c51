package aig

import (
	"sort"

	"repro/internal/cnf"
)

// Compose substitutes functions for input variables: every input node whose
// variable appears in subst is replaced by the given reference. The result is
// rebuilt bottom-up with full structural hashing, so simplifications cascade.
// A node neither of whose fanins changed is kept as it is: it came from And,
// so And would return it again.
func (g *Graph) Compose(r Ref, subst map[cnf.Var]Ref) Ref {
	if len(subst) == 0 {
		return r
	}
	// memo[n] is node n's image, or -1 before it is computed. Every node of
	// the cone is at most r's, like indexCone's pos.
	memo := make([]Ref, r.node()+1)
	for i := range memo {
		memo[i] = -1
	}
	return g.compose(r, subst, memo)
}

func (g *Graph) compose(r Ref, subst map[cnf.Var]Ref, memo []Ref) Ref {
	n := r.node()
	if n == 0 {
		return r
	}
	if out := memo[n]; out >= 0 {
		return out.XorSign(r.compl())
	}
	nd := g.nodes[n] // copy: g.nodes may be appended to during recursion
	out := Ref(n << 1)
	if nd.v != 0 {
		if s, ok := subst[nd.v]; ok {
			out = s
		}
	} else {
		f0 := g.compose(nd.f0, subst, memo)
		f1 := g.compose(nd.f1, subst, memo)
		if f0 != nd.f0 || f1 != nd.f1 {
			out = g.And(f0, f1)
		}
	}
	memo[n] = out
	return out.XorSign(r.compl())
}

// Cofactor returns r with variable v fixed to val.
func (g *Graph) Cofactor(r Ref, v cnf.Var, val bool) Ref {
	c := False
	if val {
		c = True
	}
	return g.Compose(r, map[cnf.Var]Ref{v: c})
}

// Exists existentially quantifies v: ∃v.r = r[0/v] ∨ r[1/v].
func (g *Graph) Exists(r Ref, v cnf.Var) Ref {
	return g.Or(g.Cofactor(r, v, false), g.Cofactor(r, v, true))
}

// Forall universally quantifies v: ∀v.r = r[0/v] ∧ r[1/v].
func (g *Graph) Forall(r Ref, v cnf.Var) Ref {
	return g.And(g.Cofactor(r, v, false), g.Cofactor(r, v, true))
}

// Rename replaces input variables by other input variables according to the
// map (a special case of Compose).
func (g *Graph) Rename(r Ref, ren map[cnf.Var]cnf.Var) Ref {
	if len(ren) == 0 {
		return r
	}
	// Allocate target input nodes in sorted order, not ren's map order:
	// Input may create fresh nodes, and node numbering must not depend on
	// map iteration for runs to be reproducible.
	froms := make([]cnf.Var, 0, len(ren))
	for from := range ren {
		froms = append(froms, from)
	}
	sort.Slice(froms, func(i, j int) bool { return froms[i] < froms[j] })
	subst := make(map[cnf.Var]Ref, len(ren))
	for _, from := range froms {
		subst[from] = g.Input(ren[from])
	}
	return g.Compose(r, subst)
}
