package core

import (
	"repro/internal/aig"
	"repro/internal/cnf"
)

// buildMatrix converts a CNF matrix into an AIG over graph g and composes
// the detected gate definitions in: every occurrence of a gate output
// variable is replaced by the gate's function, so the Tseitin auxiliaries
// vanish from the matrix without any quantifier elimination (Section III-C).
func buildMatrix(g *aig.Graph, f *cnf.Formula, gates []Gate) aig.Ref {
	// Resolve gate functions; gates may feed each other but form a DAG.
	byOut := make(map[cnf.Var]Gate, len(gates))
	for _, gt := range gates {
		byOut[gt.Out] = gt
	}
	fnMemo := make(map[cnf.Var]aig.Ref, len(gates))
	var fnOf func(v cnf.Var) (aig.Ref, bool)
	litRef := func(l cnf.Lit) aig.Ref {
		if r, ok := fnOf(l.Var()); ok {
			return r.XorSign(l.Neg())
		}
		return g.Input(l.Var()).XorSign(l.Neg())
	}
	fnOf = func(v cnf.Var) (aig.Ref, bool) {
		if r, ok := fnMemo[v]; ok {
			return r, true
		}
		gt, ok := byOut[v]
		if !ok {
			return 0, false
		}
		ins := make([]aig.Ref, len(gt.Ins))
		for i, l := range gt.Ins {
			ins[i] = litRef(l)
		}
		var r aig.Ref
		switch gt.Kind {
		case GateXor:
			r = g.Xor(ins[0], ins[1])
		default:
			r = g.AndN(ins...)
		}
		if gt.OutNeg {
			r = r.Not()
		}
		fnMemo[v] = r
		return r, true
	}

	clauses := make([]aig.Ref, len(f.Clauses))
	for i, c := range f.Clauses {
		lits := make([]aig.Ref, len(c))
		for j, l := range c {
			lits[j] = litRef(l)
		}
		clauses[i] = g.OrN(lits...)
	}
	return g.AndN(clauses...)
}
