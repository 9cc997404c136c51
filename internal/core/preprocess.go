package core

import (
	"fmt"
	"slices"

	"repro/internal/cert"
	"repro/internal/cnf"
	"repro/internal/dqbf"
)

// PreprocessResult captures what CNF-level preprocessing established.
type PreprocessResult struct {
	// Decided is true when preprocessing alone settled the formula.
	Decided bool
	// Value is the verdict when Decided.
	Value bool
	// Units is the number of propagated unit literals.
	Units int
	// UnivReductions counts universal literals deleted from clauses.
	UnivReductions int
	// Equivalences counts substituted equivalent variables.
	Equivalences int
	// Subsumed counts clauses removed by subsumption.
	Subsumed int
	// Strengthened counts literals removed by self-subsuming resolution.
	Strengthened int
	// Gates lists the detected Tseitin-encoded gate definitions.
	Gates []Gate
}

// GateKind distinguishes the detected gate types.
type GateKind int

const (
	// GateAnd is g ↔ l1 ∧ ... ∧ ln.
	GateAnd GateKind = iota
	// GateXor is g ↔ l1 ⊕ l2.
	GateXor
)

func (k GateKind) String() string {
	if k == GateXor {
		return "XOR"
	}
	return "AND"
}

// Gate is a detected Tseitin definition: the existential variable Out is
// equivalent to the gate function over Ins (literals, possibly negated).
// OutNeg records whether the definition is for ¬Out (an OR gate is stored as
// an AND with OutNeg and negated inputs).
type Gate struct {
	Kind   GateKind
	Out    cnf.Var
	OutNeg bool
	Ins    []cnf.Lit
}

func (g Gate) String() string {
	s := fmt.Sprintf("%d", g.Out)
	if g.OutNeg {
		s = "-" + s
	}
	return fmt.Sprintf("%s <-> %s%v", s, g.Kind, g.Ins)
}

// preprocessor mutates a working copy of the formula.
type preprocessor struct {
	f   *dqbf.Formula
	res PreprocessResult
	// univ is the universal prefix as a set, for per-literal membership
	// tests. Preprocessing removes existentials only, so it stays fixed.
	univ *dqbf.VarSet
	// deps is f.Deps indexed by variable. Every existential preprocessing
	// removes from the prefix also leaves the matrix, so for the matrix's
	// variables it agrees with f.Deps throughout.
	deps []*dqbf.VarSet
	// occ and sigs are the matrix's occurrence lists and clause signatures,
	// rebuilt by subsumeOnce each round for it and strengthenOnce. Their
	// storage, like that of bins and flags, is reused from round to round.
	occ   occurrences
	sigs  []uint64
	bins  binaryIndex
	flags []bool
	// cert collects Skolem reconstruction steps (nil-safe; nil outside
	// certified solves).
	cert *cert.Builder
}

func newPreprocessor(f *dqbf.Formula, cb *cert.Builder) *preprocessor {
	n := f.Matrix.NumVars
	for y := range f.Deps {
		n = max(n, int(y))
	}
	deps := make([]*dqbf.VarSet, n+1)
	for y, d := range f.Deps {
		deps[y] = d
	}
	return &preprocessor{f: f, univ: f.UniversalSet(), deps: deps, cert: cb}
}

// depsOf returns the dependency set of existential v, nil for any other
// variable.
func (p *preprocessor) depsOf(v cnf.Var) *dqbf.VarSet {
	if int(v) < len(p.deps) {
		return p.deps[v]
	}
	return nil
}

// Preprocess applies the paper's CNF-level preprocessing pipeline in
// alternation until fixpoint: unit propagation, DQBF universal reduction,
// and equivalent-variable substitution; finally Tseitin gate detection
// (Section III-C). The formula is modified in place.
func Preprocess(f *dqbf.Formula, detectGates bool) (PreprocessResult, error) {
	return preprocessCert(f, detectGates, nil)
}

// preprocessCert is Preprocess with certificate recording: existential unit
// assignments, equivalence substitutions and detected gates each record one
// reconstruction step into cb (nil-safe, so uncertified callers pass nil).
func preprocessCert(f *dqbf.Formula, detectGates bool, cb *cert.Builder) (PreprocessResult, error) {
	p := newPreprocessor(f, cb)
	// Normalize: drop tautological clauses and duplicate literals up front —
	// universal reduction and unit propagation assume normalized clauses.
	norm := f.Matrix.Clauses[:0]
	for _, c := range f.Matrix.Clauses {
		nc, taut := c.Normalize()
		if taut {
			continue
		}
		if len(nc) == 0 {
			p.res.Decided = true
			p.res.Value = false
			return p.res, nil
		}
		norm = append(norm, nc)
	}
	f.Matrix.Clauses = norm
	if len(norm) == 0 {
		p.res.Decided = true
		p.res.Value = true
		return p.res, nil
	}
	for {
		changed, err := p.round()
		if err != nil {
			return p.res, err
		}
		if p.res.Decided {
			return p.res, nil
		}
		if !changed {
			break
		}
	}
	if detectGates {
		p.detectGates()
	}
	p.compactPrefix()
	return p.res, nil
}

// round runs one pass of unit propagation, universal reduction, and
// equivalence substitution. It reports whether anything changed.
func (p *preprocessor) round() (bool, error) {
	changed := false
	for {
		c, err := p.propagateUnits()
		if err != nil || p.res.Decided {
			return changed, err
		}
		changed = changed || c
		if !c {
			break
		}
	}
	if c := p.universalReduction(); c {
		changed = true
		if p.res.Decided {
			return changed, nil
		}
	}
	c, err := p.substituteEquivalences()
	if err != nil || p.res.Decided {
		return changed, err
	}
	changed = changed || c
	if n := p.subsumeOnce(); n > 0 {
		p.res.Subsumed += n
		changed = true
	}
	if n := p.strengthenOnce(); n > 0 {
		p.res.Strengthened += n
		changed = true
	}
	return changed, nil
}

// propagateUnits assigns unit existential literals and detects unit
// universal literals (which falsify the formula, Theorem 5).
func (p *preprocessor) propagateUnits() (bool, error) {
	m := p.f.Matrix
	changed := false
	for _, c := range m.Clauses {
		if len(c) != 1 {
			continue
		}
		l := c[0]
		v := l.Var()
		if p.univ.Has(v) {
			p.res.Decided = true
			p.res.Value = false
			return true, nil
		}
		if !p.f.IsExistential(v) {
			return false, fmt.Errorf("core: unquantified unit variable %d", v)
		}
		p.assignAndSimplify(v, !l.Neg())
		p.res.Units++
		changed = true
		if p.res.Decided {
			return true, nil
		}
		return true, nil // clause slice changed; restart scan
	}
	if len(m.Clauses) == 0 && !p.res.Decided {
		p.res.Decided = true
		p.res.Value = true
		return changed, nil
	}
	return changed, nil
}

// assignAndSimplify fixes v := val in the matrix and drops v from the prefix.
// Only existentials reach here (universal units decide the formula), so the
// assignment is a constant Skolem step.
func (p *preprocessor) assignAndSimplify(v cnf.Var, val bool) {
	p.cert.RecordConst(v, val)
	p.removeExistential(v)
	m := p.f.Matrix
	out := m.Clauses[:0]
	falseLit := cnf.NewLit(v, val)
	for _, c := range m.Clauses {
		satisfied := false
		for _, l := range c {
			if l.Var() == v && (l.Neg() != val) {
				satisfied = true
				break
			}
		}
		if satisfied {
			continue
		}
		nc := c[:0]
		for _, l := range c {
			if l == falseLit {
				continue
			}
			nc = append(nc, l)
		}
		if len(nc) == 0 {
			p.res.Decided = true
			p.res.Value = false
			return
		}
		out = append(out, nc)
	}
	m.Clauses = out
	if len(m.Clauses) == 0 {
		p.res.Decided = true
		p.res.Value = true
	}
}

// removeExistential removes existential y from the prefix with its
// dependency set. Dependency sets hold universals only, so no other set
// changes.
func (p *preprocessor) removeExistential(y cnf.Var) {
	if i := slices.Index(p.f.Exist, y); i >= 0 {
		p.f.Exist = append(p.f.Exist[:i], p.f.Exist[i+1:]...)
	}
	delete(p.f.Deps, y)
}

// universalReduction deletes universal literals from clauses in which no
// existential literal depends on them (the DQBF generalization of QBF
// universal reduction).
func (p *preprocessor) universalReduction() bool {
	changed := false
	m := p.f.Matrix
	out := m.Clauses[:0]
	var deps []*dqbf.VarSet // dependency set per literal of the clause
	for _, c := range m.Clauses {
		if !slices.ContainsFunc(c, func(l cnf.Lit) bool { return p.univ.Has(l.Var()) }) {
			out = append(out, c)
			continue
		}
		deps = deps[:0]
		for _, l := range c {
			deps = append(deps, p.depsOf(l.Var()))
		}
		nc := c[:0]
		for _, l := range c {
			v := l.Var()
			if !p.univ.Has(v) || slices.ContainsFunc(deps, func(d *dqbf.VarSet) bool { return d != nil && d.Has(v) }) {
				nc = append(nc, l)
				continue
			}
			p.res.UnivReductions++
			changed = true
		}
		if len(nc) == 0 {
			p.res.Decided = true
			p.res.Value = false
			return true
		}
		out = append(out, nc)
	}
	m.Clauses = out
	return changed
}

// substituteEquivalences finds variable equivalences a≡b (or a≡¬b) implied
// by pairs of binary clauses and substitutes where the dependency structure
// permits (see package doc for the soundness conditions).
func (p *preprocessor) substituteEquivalences() (bool, error) {
	// Pairs are visited in ascending order: only the first match is
	// substituted per round, so the cascade of substitutions — and with it
	// the resulting CNF and every downstream pass — is fixed by the matrix.
	bins := indexBinaries(p.bins, p.f.Matrix.Clauses)
	p.bins = bins
	for _, key := range bins {
		a, b := pairLits(key)
		// (a ∨ b) together with (¬a ∨ ¬b) gives a ≡ ¬b.
		if _, ok := bins.find(a.Not(), b.Not()); !ok {
			continue
		}
		// So variable A ≡ literal (¬b with A's phase folded in).
		va, vb := a.Var(), b.Var()
		if va == vb {
			continue
		}
		// a ≡ ¬b as literals: va ≡ ¬b xor a.Neg.
		target := b.Not().XorSign(a.Neg())
		if done := p.applyEquivalence(va, target); done {
			p.res.Equivalences++
			return true, nil
		}
		if p.res.Decided {
			return true, nil
		}
	}
	return false, nil
}

// binaryIndex holds the matrix's distinct binary clauses as literal pairs,
// each packed smaller literal first, sorted for binary search.
type binaryIndex []uint64

func pairKey(a, b cnf.Lit) uint64 {
	if a > b {
		a, b = b, a
	}
	return uint64(uint32(a))<<32 | uint64(uint32(b))
}

func pairLits(key uint64) (cnf.Lit, cnf.Lit) {
	return cnf.Lit(key >> 32), cnf.Lit(uint32(key))
}

// indexBinaries indexes the binary clauses of cs, reusing buf's storage.
func indexBinaries(buf binaryIndex, cs []cnf.Clause) binaryIndex {
	n := 0
	for _, c := range cs {
		if len(c) == 2 {
			n++
		}
	}
	idx := slices.Grow(buf[:0], n)
	for _, c := range cs {
		if len(c) == 2 {
			idx = append(idx, pairKey(c[0], c[1]))
		}
	}
	slices.Sort(idx)
	return slices.Compact(idx)
}

// find returns the position of the binary clause (a ∨ b) in the index.
func (idx binaryIndex) find(a, b cnf.Lit) (int, bool) {
	return slices.BinarySearch(idx, pairKey(a, b))
}

// applyEquivalence tries to substitute variable v by literal t (v ≡ t),
// choosing the sound direction. It reports whether a substitution happened.
func (p *preprocessor) applyEquivalence(v cnf.Var, t cnf.Lit) bool {
	w := t.Var()
	vUniv, wUniv := p.univ.Has(v), p.univ.Has(w)
	switch {
	case vUniv && wUniv:
		// Two universals forced equal (or opposite): pick a violating
		// assignment — unsatisfiable.
		p.res.Decided = true
		p.res.Value = false
		return false
	case vUniv:
		// w existential ≡ universal v.
		return p.substExistUniv(w, cnf.NewLit(v, t.Neg()))
	case wUniv:
		return p.substExistUniv(v, t)
	default:
		// Two existentials: substitute the one with the larger dependency
		// set if the other's is contained in it.
		dv, dw := p.f.Deps[v], p.f.Deps[w]
		if dw.SubsetOf(dv) {
			p.substitute(v, t)
			return true
		}
		if dv.SubsetOf(dw) {
			p.substitute(w, cnf.NewLit(v, t.Neg()))
			return true
		}
		// Incomparable dependency sets: the common function may only use
		// D_v ∩ D_w, but proving that requires more machinery — skip.
		return false
	}
}

// substExistUniv handles existential y ≡ universal literal x: sound to
// substitute when x ∈ D_y; otherwise no Skolem function can track x, so the
// formula is unsatisfiable.
func (p *preprocessor) substExistUniv(y cnf.Var, x cnf.Lit) bool {
	if p.f.Deps[y].Has(x.Var()) {
		p.substitute(y, x)
		return true
	}
	p.res.Decided = true
	p.res.Value = false
	return false
}

// substitute replaces every occurrence of v by literal t and removes v from
// the prefix. Only existentials are ever substituted (applyEquivalence
// decides the two-universal case instead), so this is a Skolem step: f_v is
// whatever t's function resolves to at replay time. Only the clauses that
// mention v are rewritten.
func (p *preprocessor) substitute(v cnf.Var, t cnf.Lit) {
	p.cert.RecordSubst(v, t)
	p.removeExistential(v)
	m := p.f.Matrix
	out := m.Clauses[:0]
	for _, c := range m.Clauses {
		if !c.HasVar(v) {
			out = append(out, c)
			continue
		}
		nc := make(cnf.Clause, len(c))
		for i, l := range c {
			if l.Var() == v {
				l = t.XorSign(l.Neg())
			}
			nc[i] = l
		}
		norm, taut := nc.Normalize()
		if taut {
			continue
		}
		out = append(out, norm)
	}
	m.Clauses = out
	if len(m.Clauses) == 0 {
		p.res.Decided = true
		p.res.Value = true
	}
}

// compactPrefix drops prefix variables that no longer occur in the matrix or
// in a detected gate. Universals that other variables depend on are kept.
func (p *preprocessor) compactPrefix() {
	used := dqbf.NewVarSet()
	for _, c := range p.f.Matrix.Clauses {
		for _, l := range c {
			used.Add(l.Var())
		}
	}
	for _, g := range p.res.Gates {
		used.Add(g.Out)
		for _, l := range g.Ins {
			used.Add(l.Var())
		}
	}
	var exist []cnf.Var
	for _, y := range p.f.Exist {
		if used.Has(y) {
			exist = append(exist, y)
		} else {
			delete(p.f.Deps, y)
		}
	}
	p.f.Exist = exist
	var univ []cnf.Var
	for _, x := range p.f.Univ {
		needed := used.Has(x)
		if !needed {
			for _, d := range p.f.Deps {
				if d.Has(x) {
					// Unused universals can simply leave dependency sets.
					d.Remove(x)
				}
			}
		}
		if needed {
			univ = append(univ, x)
		}
	}
	p.f.Univ = univ
}
