// Package cert implements Skolem-function certificates for DQBF: extraction
// of per-existential Skolem functions from a run of the HQS elimination
// pipeline, and an independent checker that validates any certificate against
// the original formula, by exhaustive simulation over small universal sets
// and by one SAT call otherwise.
//
// Extraction follows the reconstruction idea of certified quantifier
// elimination (Certified DQBF Solving by Definition Extraction; Verification
// of Partial Quantifier Elimination): every pass that changes the formula in
// a way that consumes an existential variable records one reconstruction
// step into a Builder carried on pipeline.State —
//
//   - CNF-level unit assignments and AIG-level unit/pure eliminations record
//     a constant step,
//   - equivalence substitutions record the replacement literal,
//   - Tseitin gate detection records the gate definition,
//   - Theorem-2 eliminations and QBF block eliminations record the matrix the
//     variable was quantified out of,
//   - Theorem-1 universal expansions record the copy renaming, and
//   - the linear phase's final SAT call records its model.
//
// Transformations that only strengthen the matrix (universal reduction,
// subsumption, self-subsuming resolution), replace it by an equivalent one
// (SAT sweeping), restrict a monotone universal (universal pure literals),
// eliminate a universal block variable, or drop variables outside the
// support record nothing: replaying the recorded steps in reverse after a
// SAT verdict rebuilds, for every original existential y, a Skolem function
// over D_y, with every unconstrained existential defaulting to constant
// false.
//
// The checker (Check) is deliberately independent of the solver: it copies
// the functions into a fresh graph, verifies each function's support against
// the dependency sets of the original formula, substitutes the functions
// into the original matrix, and asks a SAT solver for a falsifying universal
// assignment.
//
// Certificate is the module's one certificate representation. The
// table-producing engines (idq, expand) lower their Skolem tables into it
// with FromTruePoints, so one checker serves every engine, and Encode and
// the persistent store share one serialized cone section (Cones).
package cert

import (
	"fmt"
	"sort"

	"repro/internal/aig"
	"repro/internal/cnf"
	"repro/internal/dqbf"
)

// stepKind tags the reconstruction steps, ordered as recorded (oldest
// first); Extract replays them newest-first.
type stepKind int

const (
	// stepConst fixes existential V to Val (CNF unit, AIG unit, AIG pure).
	stepConst stepKind = iota
	// stepSubst replaces existential V by the literal T (equivalence
	// substitution; T's variable is either universal or existential).
	stepSubst
	// stepGate defines existential V as the gate function Gate (Tseitin gate
	// detection; the defining clauses left the matrix).
	stepGate
	// stepExists eliminated existential V from matrix M by ∃-quantification
	// (Theorem 2 or QBF block elimination): the Skolem function is the
	// positive cofactor of M under the later-eliminated variables' functions.
	stepExists
	// stepExpand eliminated universal V by Theorem 1: every existential y
	// depending on V was split into the 0-branch y and the 1-branch copy
	// Ren[y]; the merged function is if V then f_{Ren[y]} else f_y.
	stepExpand
)

// step is one recorded reconstruction step.
type step struct {
	kind stepKind
	v    cnf.Var
	val  bool                // stepConst: the constant
	t    cnf.Lit             // stepSubst: the replacement literal
	gate gateDef             // stepGate: the definition
	m    aig.Ref             // stepExists: the matrix before elimination
	ren  map[cnf.Var]cnf.Var // stepExpand: original -> copy
}

// gateDef mirrors core.Gate without importing it (core imports this
// package): Out ↔ fn(Ins), an AND over the input literals unless Xor, with
// the whole definition negated when OutNeg.
type gateDef struct {
	out    cnf.Var
	outNeg bool
	xor    bool
	ins    []cnf.Lit
}

// Builder accumulates reconstruction steps during a solve. All methods are
// nil-safe no-ops, so recording sites need no certification guard; a solve
// without -cert simply carries a nil builder. A Builder is not safe for
// concurrent use — each solve owns one, matching the single-threaded pass
// pipelines.
type Builder struct {
	steps []step
	model map[cnf.Var]bool
}

// NewBuilder returns an empty builder.
func NewBuilder() *Builder { return &Builder{} }

// RecordConst records that existential v was fixed to val.
func (b *Builder) RecordConst(v cnf.Var, val bool) {
	if b == nil {
		return
	}
	b.steps = append(b.steps, step{kind: stepConst, v: v, val: val})
}

// RecordSubst records that existential v was replaced by literal t.
func (b *Builder) RecordSubst(v cnf.Var, t cnf.Lit) {
	if b == nil {
		return
	}
	b.steps = append(b.steps, step{kind: stepSubst, v: v, t: t})
}

// RecordGate records a detected gate definition out ↔ fn(ins) (an AND over
// the input literals, or an XOR when xor is set; outNeg negates the
// definition). The input slice is copied.
func (b *Builder) RecordGate(out cnf.Var, outNeg, xor bool, ins []cnf.Lit) {
	if b == nil {
		return
	}
	b.steps = append(b.steps, step{kind: stepGate, v: out, gate: gateDef{
		out: out, outNeg: outNeg, xor: xor, ins: append([]cnf.Lit(nil), ins...),
	}})
}

// RecordExists records that existential y was ∃-quantified out of matrix m.
// The reference must stay valid in the solve's graph (sweeps rebuild in the
// same graph, so it does).
func (b *Builder) RecordExists(y cnf.Var, m aig.Ref) {
	if b == nil {
		return
	}
	b.steps = append(b.steps, step{kind: stepExists, v: y, m: m})
}

// RecordExpand records a Theorem-1 elimination of universal x with the
// existential copy renaming ren (original → copy). The map is copied.
func (b *Builder) RecordExpand(x cnf.Var, ren map[cnf.Var]cnf.Var) {
	if b == nil {
		return
	}
	cp := make(map[cnf.Var]cnf.Var, len(ren))
	for k, v := range ren {
		cp[k] = v
	}
	b.steps = append(b.steps, step{kind: stepExpand, v: x, ren: cp})
}

// RecordModel records the final SAT call's model over the surviving
// existentials. The map is copied; a later call replaces an earlier one (the
// final SAT runs at most once per solve).
func (b *Builder) RecordModel(model map[cnf.Var]bool) {
	if b == nil {
		return
	}
	cp := make(map[cnf.Var]bool, len(model))
	for k, v := range model {
		cp[k] = v
	}
	b.model = cp
}

// Certificate is a set of Skolem functions witnessing satisfaction: for
// every existential variable of the formula, an AIG function over its
// dependency set. The functions live in their own graph, detached from any
// solver state.
type Certificate struct {
	// G holds the function cones.
	G *aig.Graph
	// Funcs maps each existential variable to its Skolem function in G.
	Funcs map[cnf.Var]aig.Ref
}

// constRef maps a Boolean to the corresponding constant reference.
func constRef(b bool) aig.Ref {
	if b {
		return aig.True
	}
	return aig.False
}

// Extract replays the recorded steps in reverse over the solve's graph g and
// returns the certificate for the original formula f (the formula as handed
// to the solver, before any preprocessing). g may be nil when the solve
// never built a matrix (decided during CNF preprocessing); extraction then
// replays in a scratch graph. Extract must only be called after a SAT
// verdict; the result is self-contained (its functions live in a fresh
// graph, see Certificate).
func (b *Builder) Extract(f *dqbf.Formula, g *aig.Graph) (*Certificate, error) {
	if b == nil {
		return nil, fmt.Errorf("cert: no builder attached to the solve")
	}
	if g == nil {
		g = aig.New()
	}
	// Extraction composes cones after the verdict; the node budget governed
	// the solve, not the certificate replay.
	savedLimit := g.NodeLimit
	g.NodeLimit = 0
	defer func() { g.NodeLimit = savedLimit }()

	origUniv := dqbf.NewVarSet(f.Univ...)

	// def holds the reconstructed function of every existential consumed so
	// far (in reverse order, so "so far" means "eliminated later"). Every
	// entry is closed: its support contains only universal inputs.
	def := make(map[cnf.Var]aig.Ref, len(f.Exist))
	for v, val := range b.model {
		def[v] = constRef(val)
	}

	// resolve returns the function standing for variable v at the current
	// replay position: its reconstructed definition, the input itself for an
	// original universal, and the default constant false for an existential
	// no step ever constrained.
	resolve := func(v cnf.Var) aig.Ref {
		if r, ok := def[v]; ok {
			return r
		}
		if origUniv.Has(v) {
			return g.Input(v)
		}
		return aig.False
	}

	// Gate definitions are replayed on demand: detection order is not
	// topological, so a gate's inputs may be gates recorded after it.
	gates := make(map[cnf.Var]gateDef)
	for _, s := range b.steps {
		if s.kind == stepGate {
			gates[s.v] = s.gate
		}
	}
	building := make(map[cnf.Var]bool)
	var ensureGate func(out cnf.Var) error
	ensureGate = func(out cnf.Var) error {
		if _, ok := def[out]; ok {
			return nil
		}
		if building[out] {
			return fmt.Errorf("cert: gate definition cycle at variable %d", out)
		}
		building[out] = true
		defer delete(building, out)
		gd := gates[out]
		ins := make([]aig.Ref, len(gd.ins))
		for i, l := range gd.ins {
			v := l.Var()
			if _, isGate := gates[v]; isGate {
				if err := ensureGate(v); err != nil {
					return err
				}
			}
			ins[i] = resolve(v).XorSign(l.Neg())
		}
		var r aig.Ref
		if gd.xor {
			if len(ins) != 2 {
				return fmt.Errorf("cert: XOR gate for %d has %d inputs", out, len(ins))
			}
			r = g.Xor(ins[0], ins[1])
		} else {
			r = g.AndN(ins...)
		}
		def[out] = r.XorSign(gd.outNeg)
		return nil
	}

	for i := len(b.steps) - 1; i >= 0; i-- {
		s := b.steps[i]
		switch s.kind {
		case stepConst:
			def[s.v] = constRef(s.val)
		case stepSubst:
			def[s.v] = resolve(s.t.Var()).XorSign(s.t.Neg())
		case stepGate:
			if err := ensureGate(s.v); err != nil {
				return nil, err
			}
		case stepExists:
			// f_y = (φ with y := 1) under the later-eliminated variables'
			// functions: satisfy the matrix whenever setting y makes that
			// possible. Every non-universal variable left in the cofactor's
			// cone must be substituted explicitly — Compose leaves unmapped
			// inputs in place, and an existential the replay never defined
			// (dropped from the support, or cut off when the matrix collapsed
			// to a constant) defaults to false here.
			cof := g.Cofactor(s.m, s.v, true)
			subst := make(map[cnf.Var]aig.Ref)
			for v := range g.Support(cof) {
				if !origUniv.Has(v) {
					subst[v] = resolve(v)
				}
			}
			def[s.v] = g.Compose(cof, subst)
		case stepExpand:
			// Merge the 0-branch and 1-branch functions of every copied
			// existential; sorted order keeps fresh input allocation (for the
			// expanded universal) deterministic.
			x := g.Input(s.v)
			origs := make([]cnf.Var, 0, len(s.ren))
			for y := range s.ren {
				origs = append(origs, y)
			}
			sort.Slice(origs, func(a, b int) bool { return origs[a] < origs[b] })
			for _, y := range origs {
				def[y] = g.Ite(x, resolve(s.ren[y]), resolve(y))
				delete(def, s.ren[y])
			}
		}
	}

	// Export the function of every original existential into a fresh graph.
	out := &Certificate{G: aig.New(), Funcs: make(map[cnf.Var]aig.Ref, len(f.Exist))}
	memo := make(map[int32]aig.Ref)
	for _, y := range f.Exist {
		out.Funcs[y] = g.Export(resolve(y), out.G, memo)
	}
	return out, nil
}
