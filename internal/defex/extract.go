package defex

import (
	"repro/internal/aig"
	"repro/internal/cnf"
	"repro/internal/sat"
)

// aigItp implements sat.ItpBuilder directly over the solve's AIG: interpolant
// nodes are ordinary AND/OR cones, so the extracted definition needs no
// translation step and structural hashing dedups shared subterms for free.
type aigItp struct{ g *aig.Graph }

func (b aigItp) True() sat.ItpRef  { return sat.ItpRef(aig.True) }
func (b aigItp) False() sat.ItpRef { return sat.ItpRef(aig.False) }
func (b aigItp) Lit(l cnf.Lit) sat.ItpRef {
	return sat.ItpRef(b.g.Input(l.Var()).XorSign(l.Neg()))
}
func (b aigItp) And(x, y sat.ItpRef) sat.ItpRef {
	return sat.ItpRef(b.g.And(aig.Ref(x), aig.Ref(y)))
}
func (b aigItp) Or(x, y sat.ItpRef) sat.ItpRef {
	return sat.ItpRef(b.g.Or(aig.Ref(x), aig.Ref(y)))
}

// extract obtains the defining function ψ of a variable the Padoa check
// proved defined, as the interpolant of a fresh proof-mode refutation. The
// candidate is verified against the persistent oracle (M ∧ (y ⊕ ψ) must be
// unsatisfiable) before it is trusted; false leaves y undefined, which is
// sound: it goes to the residual expansion.
func (e *engine) extract(y cnf.Var) (aig.Ref, bool) {
	psi, ok := e.interpolate(y)
	if !ok || !e.verifyDef(y, psi) {
		return aig.False, false
	}
	return psi, true
}

// verifyDef checks M ⊨ (y ↔ ψ) with one incremental oracle query: M ∧ (y⊕ψ)
// must be unsatisfiable. Inconclusive queries reject the candidate.
func (e *engine) verifyDef(y cnf.Var, psi aig.Ref) bool {
	diff := e.g.Xor(e.g.Input(y), psi)
	sat, err := e.query(e.orc.Lit(e.m), e.orc.Lit(diff))
	return err == nil && !sat
}

// interpolate rebuilds the Padoa refutation for y on a fresh proof-mode
// solver and returns the Craig interpolant — a function over the shared
// vocabulary, which is exactly D_y. The A part is the matrix with unit y, the
// B part a copy of the matrix with every support variable except D_y primed
// (offset +n) and unit ¬y'; Tseitin gate variables of the two encodings are
// kept in disjoint ranges so the class function can label them by range.
func (e *engine) interpolate(y cnf.Var) (aig.Ref, bool) {
	g, n := e.g, e.n
	deps := e.work.Deps[y]

	fa, rootA := g.ToFormula(e.m, 2*n)

	renB := make(map[cnf.Var]cnf.Var)
	for v := range g.Support(e.m) {
		if !deps.Has(v) {
			renB[v] = v + n
		}
	}
	bMatrix := g.Rename(e.m, renB)
	maxB := cnf.Var(fa.NumVars)
	if 2*n > maxB {
		maxB = 2 * n
	}
	fb, rootB := g.ToFormula(bMatrix, maxB)

	class := func(v cnf.Var) sat.ItpClass {
		switch {
		case deps.Has(v):
			return sat.ItpClassShared
		case v <= n:
			return sat.ItpClassA
		case v <= 2*n:
			return sat.ItpClassB
		case int(v) <= fa.NumVars:
			return sat.ItpClassA
		default:
			return sat.ItpClassB
		}
	}

	s := sat.New()
	s.Budget = e.opt.Budget
	s.BeginInterpolation(aigItp{g: g}, class)
	ok := true
	for _, c := range fa.Clauses {
		ok = s.AddClauseTagged(false, c...) && ok
	}
	ok = ok && s.AddClauseTagged(false, rootA)
	ok = ok && s.AddClauseTagged(false, cnf.PosLit(y))
	for _, c := range fb.Clauses {
		ok = s.AddClauseTagged(true, c...) && ok
	}
	ok = ok && s.AddClauseTagged(true, rootB)
	ok = ok && s.AddClauseTagged(true, cnf.NegLit(y+n))
	if ok {
		if s.Solve() != sat.Unsat {
			// Unknown (budget) — or Sat, which would contradict the Padoa
			// check and means a bug or an injected fault upstream; either way
			// leave y undefined.
			return aig.False, false
		}
	}
	ref, has := s.Interpolant()
	if !has {
		return aig.False, false
	}
	psi := aig.Ref(ref)
	// The interpolant vocabulary is the shared one by construction; guard
	// against regressions defensively since substitution would silently
	// corrupt the matrix otherwise.
	for v := range g.Support(psi) {
		if !deps.Has(v) {
			return aig.False, false
		}
	}
	return psi, true
}
