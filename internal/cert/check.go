package cert

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/aig"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/oracle"
)

// exhaustiveWork bounds the exhaustive decider of Check, in cone-node
// simulations of one 64-assignment word: 2^max(0,k−6)·|cone| for the k
// universals the substituted matrix reads. It sits at the measured
// crossover with the SAT call: on PEC certificates of 15–22 universals the
// two took about as long at 0.5–2.3M steps, and past 5M the SAT call was
// 4.7–21× faster.
const exhaustiveWork = 1 << 21

// Check validates the certificate against the original formula without
// reusing any solver state: it verifies that every existential has a
// function whose support lies inside its dependency set, substitutes the
// functions into the matrix in a fresh graph, and looks for a universal
// assignment falsifying the substituted matrix. Two deciders look: the
// exhaustive simulation of aig.Graph.Exhaustive while its work stays within
// exhaustiveWork, and otherwise one SAT call on a fresh oracle. A nil error
// means the certificate proves the formula satisfiable.
func Check(f *dqbf.Formula, c *Certificate) error {
	return check(f, c, exhaustiveWork)
}

// check is Check with the exhaustive decider's work bound as a parameter;
// a negative bound sends every certificate to the SAT call.
func check(f *dqbf.Formula, c *Certificate, maxWork int64) error {
	if c == nil || c.G == nil {
		return fmt.Errorf("cert: no certificate")
	}
	univ := dqbf.NewVarSet(f.Univ...)

	// Structural admissibility: one function per existential, support inside
	// the dependency set.
	for _, y := range f.Exist {
		fn, ok := c.Funcs[y]
		if !ok {
			return fmt.Errorf("cert: no Skolem function for existential %d", y)
		}
		for _, r := range c.G.ConeRefs(fn) {
			v := c.G.InputVar(r)
			if v == 0 {
				continue
			}
			if !univ.Has(v) {
				return fmt.Errorf("cert: function of %d depends on non-universal variable %d", y, v)
			}
			if !f.Deps[y].Has(v) {
				return fmt.Errorf("cert: function of %d depends on %d outside its dependency set %s", y, v, f.Deps[y])
			}
		}
	}

	// Build matrix[y := f_y] in a graph sharing nothing with the solver.
	h := aig.New()
	memo := make(map[int32]aig.Ref)
	fnOf := make(map[cnf.Var]aig.Ref, len(f.Exist))
	for _, y := range f.Exist {
		fnOf[y] = c.G.Export(c.Funcs[y], h, memo)
	}
	litRef := func(l cnf.Lit) (aig.Ref, error) {
		v := l.Var()
		if fn, ok := fnOf[v]; ok {
			return fn.XorSign(l.Neg()), nil
		}
		if univ.Has(v) {
			return h.Input(v).XorSign(l.Neg()), nil
		}
		return 0, fmt.Errorf("cert: matrix uses unquantified variable %d", v)
	}
	matrix := aig.True
	for _, cl := range f.Matrix.Clauses {
		refs := make([]aig.Ref, len(cl))
		for i, l := range cl {
			r, err := litRef(l)
			if err != nil {
				return err
			}
			refs[i] = r
		}
		matrix = h.And(matrix, h.OrN(refs...))
	}

	var value map[cnf.Var]bool
	switch verdict, cex := h.Exhaustive(matrix, f.Univ, maxWork); verdict {
	case aig.Valid:
		return nil
	case aig.Falsified:
		value = make(map[cnf.Var]bool, len(f.Univ))
		for j, x := range f.Univ {
			value[x] = cex[j]
		}
	default:
		// One SAT call: a model of ¬matrix is a universal assignment the
		// certified functions fail on. The query goes through the oracle
		// layer (fresh instance — the checker must share no state with the
		// solver) so it uses the packed-arena substrate and the
		// oracle.query fault seam like every other oracle consumer.
		sat, model, err := oracle.New(h).IsSatisfiable(matrix.Not(), nil)
		if err != nil {
			return fmt.Errorf("cert: checker oracle failed: %w", err)
		}
		if !sat {
			return nil
		}
		value = model
	}
	var parts []string
	for _, x := range f.Univ {
		val := 0
		if value[x] {
			val = 1
		}
		parts = append(parts, fmt.Sprintf("%d=%d", x, val))
	}
	return fmt.Errorf("cert: certificate falsified at universal assignment {%s}", strings.Join(parts, ","))
}

// FromTruePoints lowers Skolem truth tables to a certificate. The function
// of each existential y of f is the OR of the minterms over D_y listed in
// points[y], each a dqbf.ProjectionKey over f.Deps[y], and false on every
// other assignment. The table-producing engines (idq, expand) emit their
// certificates through it. Each points[y] is sorted in place, so equal
// tables lower to equal graphs.
func FromTruePoints(f *dqbf.Formula, points map[cnf.Var][]string) *Certificate {
	c := &Certificate{G: aig.New(), Funcs: make(map[cnf.Var]aig.Ref, len(f.Exist))}
	for _, y := range f.Exist {
		deps := f.Deps[y].Vars()
		keys := points[y]
		sort.Strings(keys)
		minterms := make([]aig.Ref, len(keys))
		for i, k := range keys {
			lits := make([]aig.Ref, len(deps))
			for j, d := range deps {
				lits[j] = c.G.Input(d).XorSign(k[j] == '0')
			}
			minterms[i] = c.G.AndN(lits...)
		}
		c.Funcs[y] = c.G.OrN(minterms...)
	}
	return c
}

// Format renders the certificate as human-readable Skolem tables against the
// formula's dependency sets: one line per existential with the full truth
// table when the dependency set is small, and a support summary otherwise.
// It is the shape printed by `hqs -cert` and by dqbffuzz on a rejected
// certificate.
func Format(f *dqbf.Formula, c *Certificate) string {
	const maxTableDeps = 6
	var b strings.Builder
	for _, y := range f.Exist {
		fn, ok := c.Funcs[y]
		if !ok {
			fmt.Fprintf(&b, "s %d : <missing>\n", y)
			continue
		}
		deps := f.Deps[y].Vars()
		fmt.Fprintf(&b, "s %d deps=%v :", y, deps)
		if len(deps) > maxTableDeps {
			sup := supportVars(c.G, fn)
			fmt.Fprintf(&b, " <%d-input function over %v, %d AIG nodes>\n", len(deps), sup, c.G.ConeSize(fn))
			continue
		}
		for bits := 0; bits < 1<<len(deps); bits++ {
			assign := func(v cnf.Var) bool {
				for i, d := range deps {
					if d == v {
						return bits&(1<<i) != 0
					}
				}
				return false
			}
			key := dqbf.ProjectionKey(deps, assign)
			val := 0
			if c.G.Eval(fn, assign) {
				val = 1
			}
			if key == "" {
				fmt.Fprintf(&b, " %d", val)
			} else {
				fmt.Fprintf(&b, " %s->%d", key, val)
			}
		}
		b.WriteString("\n")
	}
	return b.String()
}

// supportVars returns the syntactic support of r in ascending order.
func supportVars(g *aig.Graph, r aig.Ref) []cnf.Var {
	sup := g.Support(r)
	out := make([]cnf.Var, 0, len(sup))
	for v := range sup {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
