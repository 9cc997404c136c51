package dqbf

import "repro/internal/cnf"

// depGraph is the dependency graph of Definition 4: vertices are the
// existential variables; there is an edge y→z iff D_y ⊄ D_z (y depends on a
// universal that z does not).
type depGraph struct {
	Vars  []cnf.Var
	Edges map[cnf.Var]*VarSet // adjacency: Edges[y] = {z | y→z}
}

// dependencyGraph builds the dependency graph of the formula.
func dependencyGraph(f *Formula) *depGraph {
	g := &depGraph{
		Vars:  append([]cnf.Var(nil), f.Exist...),
		Edges: make(map[cnf.Var]*VarSet, len(f.Exist)),
	}
	for _, y := range f.Exist {
		g.Edges[y] = NewVarSet()
	}
	for _, y := range f.Exist {
		for _, z := range f.Exist {
			if y == z {
				continue
			}
			if !f.Deps[y].SubsetOf(f.Deps[z]) {
				g.Edges[y].Add(z)
			}
		}
	}
	return g
}

// hasEdge reports whether the edge y→z is present.
func (g *depGraph) hasEdge(y, z cnf.Var) bool {
	e, ok := g.Edges[y]
	return ok && e.Has(z)
}

// hasCycleDFS decides cyclicity by depth-first search over the edges of
// Definition 4: the reference that IsCyclic's Theorem 4 criterion is held
// to.
func hasCycleDFS(g *depGraph) bool {
	state := make(map[cnf.Var]int) // 0 unvisited, 1 on stack, 2 done
	var visit func(v cnf.Var) bool
	visit = func(v cnf.Var) bool {
		state[v] = 1
		for _, w := range g.Edges[v].Vars() {
			switch state[w] {
			case 1:
				return true
			case 0:
				if visit(w) {
					return true
				}
			}
		}
		state[v] = 2
		return false
	}
	for _, v := range g.Vars {
		if state[v] == 0 && visit(v) {
			return true
		}
	}
	return false
}
