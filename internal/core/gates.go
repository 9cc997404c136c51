package core

import (
	"cmp"
	"slices"

	"repro/internal/cnf"
	"repro/internal/dqbf"
)

// detectGates recognizes Tseitin-encoded AND/OR/XOR gate definitions in the
// matrix (Section III-C): the defining clauses are removed and the
// relationship is stored as a Gate so that the AIG construction composes the
// gate function in directly — the auxiliary output variable then needs no
// explicit elimination.
//
// A definition g ↔ f(l1..ln) may be extracted only if f is a legal Skolem
// function for g: every universal input must be in D_g and every existential
// input's dependency set must be contained in D_g. Definitions must form a
// DAG; a gate that would close a definition cycle is skipped.
func (p *preprocessor) detectGates() {
	m := p.f.Matrix
	// Defining clauses are marked removed: binaries by their position in
	// the pair index, the others by clause index. The fixpoint ends on a
	// round in which subsumption found nothing, so no binary clause occurs
	// twice.
	removed := make([]bool, len(m.Clauses))
	bins := indexBinaries(p.bins, m.Clauses)
	binRemoved := make([]bool, len(bins))
	findBin := func(a, b cnf.Lit) (int, bool) {
		i, ok := bins.find(a, b)
		if ok && binRemoved[i] {
			return 0, false
		}
		return i, ok
	}

	maxVar := cnf.Var(0)
	for _, c := range m.Clauses {
		for _, l := range c {
			maxVar = max(maxVar, l.Var())
		}
	}
	defined := make([]bool, maxVar+1)     // gate outputs already defined
	usesOf := make([][]cnf.Var, maxVar+1) // gate output -> inputs that are gate outputs
	seen := make([]bool, maxVar+1)
	var stack []cnf.Var
	reaches := func(from, to cnf.Var) bool { // DFS over definition edges
		clear(seen)
		stack = append(stack[:0], from)
		seen[from] = true
		for len(stack) > 0 {
			v := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			if v == to {
				return true
			}
			for _, w := range usesOf[v] {
				if !seen[w] {
					seen[w] = true
					stack = append(stack, w)
				}
			}
		}
		return false
	}
	cyclic := func(out cnf.Var, ins []cnf.Lit) bool {
		for _, l := range ins {
			if defined[l.Var()] && reaches(l.Var(), out) {
				return true
			}
		}
		return false
	}

	validSkolemInputs := func(out cnf.Var, ins []cnf.Lit) bool {
		dg := p.f.Deps[out]
		for _, l := range ins {
			v := l.Var()
			if v == out {
				return false
			}
			if p.univ.Has(v) {
				if !dg.Has(v) {
					return false
				}
				continue
			}
			d, ok := p.f.Deps[v]
			if !ok || !d.SubsetOf(dg) {
				return false
			}
		}
		return true
	}

	acceptGate := func(g Gate, clauses, binaries []int) {
		for _, i := range clauses {
			removed[i] = true
		}
		for _, i := range binaries {
			binRemoved[i] = true
		}
		p.cert.RecordGate(g.Out, g.OutNeg, g.Kind == GateXor, g.Ins)
		defined[g.Out] = true
		for _, l := range g.Ins {
			if p.f.IsExistential(l.Var()) {
				usesOf[g.Out] = append(usesOf[g.Out], l.Var())
			}
		}
		p.res.Gates = append(p.res.Gates, g)
	}

	// AND/OR detection: a clause (go ∨ ¬l1 ∨ ... ∨ ¬ln) with binaries
	// (¬go ∨ li) for all i encodes go ↔ l1∧...∧ln. If go appears negatively
	// in the long clause the same pattern encodes an OR.
	var ins []cnf.Lit
	var binIdxs []int
	for i, c := range m.Clauses {
		if removed[i] || len(c) < 3 {
			continue
		}
		for _, outLit := range c {
			out := outLit.Var()
			if !p.f.IsExistential(out) || defined[out] {
				continue
			}
			ins, binIdxs = ins[:0], binIdxs[:0]
			ok := true
			for _, l := range c {
				if l == outLit {
					continue
				}
				if l.Var() == out {
					ok = false
					break
				}
				in := l.Not()
				bi, found := findBin(outLit.Not(), in)
				if !found {
					ok = false
					break
				}
				ins = append(ins, in)
				binIdxs = append(binIdxs, bi)
			}
			if !ok || !validSkolemInputs(out, ins) || cyclic(out, ins) {
				continue
			}
			// outLit positive: out ↔ AND(ins). Negative: ¬out ↔ AND(ins).
			acceptGate(Gate{Kind: GateAnd, Out: out, OutNeg: outLit.Neg(), Ins: slices.Clone(ins)}, []int{i}, binIdxs)
			break
		}
	}

	// XOR detection: four ternary clauses over the same variable triple with
	// the parity pattern of g ↔ a ⊕ b. Triples are visited in ascending
	// order, not by any hash: detection consumes clauses and marks outputs
	// defined, so which overlapping candidate wins — and the order gates are
	// composed into the AIG — must be reproducible.
	type ternary struct {
		vs     [3]cnf.Var
		clause int
	}
	var terns []ternary
	for i, c := range m.Clauses {
		if removed[i] || len(c) != 3 {
			continue
		}
		vs := [3]cnf.Var{c[0].Var(), c[1].Var(), c[2].Var()}
		slices.Sort(vs[:])
		if vs[0] == vs[1] || vs[1] == vs[2] {
			continue
		}
		terns = append(terns, ternary{vs, i})
	}
	slices.SortFunc(terns, func(x, y ternary) int {
		return cmp.Or(cmp.Compare(x.vs[0], y.vs[0]), cmp.Compare(x.vs[1], y.vs[1]),
			cmp.Compare(x.vs[2], y.vs[2]), cmp.Compare(x.clause, y.clause))
	})
	for lo := 0; lo < len(terns); {
		vs := terns[lo].vs
		hi := lo + 1
		for hi < len(terns) && terns[hi].vs == vs {
			hi++
		}
		group := terns[lo:hi]
		lo = hi
		if len(group) < 4 {
			continue
		}
		// Collect the sign patterns present (bit i = literal of vs[i]
		// negative), mapping each to its clause; -1 marks an absent pattern.
		var pat [8]int
		for k := range pat {
			pat[k] = -1
		}
		for _, t := range group {
			if removed[t.clause] {
				continue
			}
			mask := 0
			for _, l := range m.Clauses[t.clause] {
				for k, v := range vs {
					if l.Var() == v && l.Neg() {
						mask |= 1 << k
					}
				}
			}
			pat[mask] = t.clause
		}
		// g ↔ a⊕b over (g,a,b) = (vs[k], others): masks with even total
		// parity encode g↔a⊕b; masks with odd parity encode g↔¬(a⊕b).
		for k := 0; k < 3; k++ {
			out := vs[k]
			if !p.f.IsExistential(out) || defined[out] {
				continue
			}
			var a, b int
			switch k {
			case 0:
				a, b = 1, 2
			case 1:
				a, b = 0, 2
			default:
				a, b = 0, 1
			}
			kb, ab, bb := 1<<k, 1<<a, 1<<b
			// g ↔ a⊕b ≡ CNF {(¬g a b) (¬g ¬a ¬b) (g a ¬b) (g ¬a b)}
			xorMasks := [4]int{kb, kb | ab | bb, bb, ab}
			// g ↔ ¬(a⊕b): complement g's sign in each clause.
			xnorMasks := [4]int{0, ab | bb, kb | bb, kb | ab}
			match := func(masks [4]int) bool {
				for _, mk := range masks {
					if i := pat[mk]; i < 0 || removed[i] {
						return false
					}
				}
				return true
			}
			var outNeg bool
			var masks [4]int
			if match(xorMasks) {
				outNeg = false
				masks = xorMasks
			} else if match(xnorMasks) {
				outNeg = true
				masks = xnorMasks
			} else {
				continue
			}
			gateIns := []cnf.Lit{cnf.PosLit(vs[a]), cnf.PosLit(vs[b])}
			if !validSkolemInputs(out, gateIns) || cyclic(out, gateIns) {
				continue
			}
			var ci []int
			for _, mk := range masks {
				ci = append(ci, pat[mk])
			}
			acceptGate(Gate{Kind: GateXor, Out: out, OutNeg: outNeg, Ins: gateIns}, ci, nil)
			break
		}
	}

	// Drop the defining clauses from the matrix.
	if len(p.res.Gates) > 0 {
		out := m.Clauses[:0]
		for i, c := range m.Clauses {
			if len(c) == 2 {
				j, _ := bins.find(c[0], c[1])
				removed[i] = binRemoved[j]
			}
			if !removed[i] {
				out = append(out, c)
			}
		}
		m.Clauses = out
		// Gate outputs leave the prefix: they are defined, not free.
		for _, g := range p.res.Gates {
			p.removeExistential(g.Out)
		}
	}
}

// gateFanins returns, for testing, the set of variables feeding gate g.
func gateFanins(g Gate) *dqbf.VarSet {
	s := dqbf.NewVarSet()
	for _, l := range g.Ins {
		s.Add(l.Var())
	}
	return s
}
