package aig

import "repro/internal/cnf"

// Polarity classifies a variable according to the syntactic unit/pure check
// of the paper's Theorem 6.
type Polarity struct {
	PosUnit bool // a negation-free path from the input to the output exists
	NegUnit bool // a path whose only negation is directly at the input exists
	PosPure bool // every path has an even number of negations
	NegPure bool // every path has an odd number of negations
}

// UnitPure runs the linear-time path-parity traversal of Theorem 6 on the
// cone of r and returns, for every input variable in the support, its
// syntactic classification.
//
// The flags per node are "reachable from the output along a path with an even
// (odd) number of complemented edges" and "reachable along a path with no
// complemented edge at all"; the complement bit of r itself counts as an edge
// negation. The traversal is O(|cone| + |V|), matching the paper.
func (g *Graph) UnitPure(r Ref) map[cnf.Var]Polarity {
	out := make(map[cnf.Var]Polarity)
	if r.IsConst() {
		return out
	}
	cone := g.coneNodes(r)
	// One flag byte per node of the cone's index range, indexed by node.
	lo := cone[0]
	fl := make([]byte, int(cone[len(cone)-1]-lo)+1)
	if r.compl() {
		fl[r.node()-lo] = flagOdd
	} else {
		fl[r.node()-lo] = flagEven | flagClean
	}
	// Node indices are a topological order: parents have larger indices than
	// children, so a single descending pass propagates all flags.
	for i := len(cone) - 1; i >= 0; i-- {
		n := cone[i]
		nd := &g.nodes[n]
		if nd.v != 0 {
			continue
		}
		f := fl[n-lo]
		for _, e := range [2]Ref{nd.f0, nd.f1} {
			if e.compl() {
				// A complemented edge swaps parity and breaks cleanliness.
				fl[e.node()-lo] |= f&flagOdd>>1 | f&flagEven<<1
			} else {
				fl[e.node()-lo] |= f
			}
		}
	}
	// Unit flags: an input is a unit when some AND with a clean path reaches
	// it over an edge of the matching polarity. The root itself being the
	// input is the degenerate case.
	for _, n := range cone {
		nd := &g.nodes[n]
		if nd.v != 0 || fl[n-lo]&flagClean == 0 {
			continue
		}
		for _, e := range [2]Ref{nd.f0, nd.f1} {
			if e.compl() {
				fl[e.node()-lo] |= flagNegUnit
			} else {
				fl[e.node()-lo] |= flagPosUnit
			}
		}
	}
	if g.nodes[r.node()].v != 0 {
		if r.compl() {
			fl[r.node()-lo] |= flagNegUnit
		} else {
			fl[r.node()-lo] |= flagPosUnit
		}
	}
	for _, n := range cone {
		nd := &g.nodes[n]
		if nd.v == 0 {
			continue
		}
		f := fl[n-lo]
		out[nd.v] = Polarity{
			PosUnit: f&flagPosUnit != 0,
			NegUnit: f&flagNegUnit != 0,
			PosPure: f&flagOdd == 0,
			NegPure: f&flagEven == 0,
		}
	}
	return out
}

// Per-node traversal flags of UnitPure: reachable from the output along a
// path with an even (odd) number of complemented edges, reachable along a
// path with no complemented edge at all, and (inputs only) reached from a
// clean AND over an uncomplemented (complemented) edge.
const (
	flagEven byte = 1 << iota
	flagOdd
	flagClean
	flagPosUnit
	flagNegUnit
)
