package aig

// Export copies the cone of r into dst, preserving input variable names, and
// returns the corresponding reference in dst. memo carries the source-node →
// destination-reference translation; passing the same map across several
// Export calls from one source graph shares the copied structure between
// them. A nil memo allocates a private one.
//
// The copy walks the cone in topological order, so dst's node numbering is
// deterministic for a fixed source graph and call sequence. Certificates use
// this to move extracted Skolem functions out of the solver's working graph
// into a self-contained one (internal/cert), and the independent checker uses
// it again to rebuild those functions in a fresh graph that shares no state
// with the solver.
func (g *Graph) Export(r Ref, dst *Graph, memo map[int32]Ref) Ref {
	if memo == nil {
		memo = make(map[int32]Ref)
	}
	// edge translates a source edge whose node is already in memo (or the
	// constant node) into a dst reference with the complement bit applied.
	edge := func(e Ref) Ref {
		n := e.node()
		if n == 0 {
			return False.XorSign(e.compl())
		}
		return memo[n].XorSign(e.compl())
	}
	for _, n := range g.coneNodes(r) {
		if _, ok := memo[n]; ok {
			continue
		}
		nd := g.nodes[n]
		if nd.v != 0 {
			memo[n] = dst.Input(nd.v)
			continue
		}
		memo[n] = dst.And(edge(nd.f0), edge(nd.f1))
	}
	return edge(r)
}
