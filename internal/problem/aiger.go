package problem

import (
	"fmt"
	"strings"

	"repro/internal/aig"
	"repro/internal/cnf"
	"repro/internal/dqbf"
)

// universalInputName reports whether an input symbol marks the input as
// universally quantified: the "a_", "u_", or "forall_" naming convention.
// Unnamed inputs and all other names quantify existentially (over all
// universal inputs), matching the BENCH free-signal semantics.
func universalInputName(name string) bool {
	return strings.HasPrefix(name, "a_") || strings.HasPrefix(name, "u_") ||
		strings.HasPrefix(name, "forall_")
}

// aigerProblem Tseitin-encodes the circuit as a Problem: each and gate
// becomes three clauses over variables numbered as in the AIGER file,
// outputs become unit clauses (all constrained true), inputs named with a
// universal prefix (see universalInputName) quantify universally, and every
// other variable — remaining inputs and the and gates — is existential over
// all universals. Literals 0/1 share one constant variable, M+1, so M must
// stay below cnf.MaxVar.
func aigerProblem(af *aig.File) (*Problem, error) {
	if af.MaxVar >= cnf.MaxVar {
		return nil, fmt.Errorf("aiger: maximum variable %d leaves no variable for the constant", af.MaxVar)
	}
	f := dqbf.New()
	f.Matrix.NumVars = af.MaxVar
	var univ, rest []cnf.Var
	for i, l := range af.Inputs {
		v := cnf.Var(l / 2)
		if universalInputName(af.InSyms[i]) {
			univ = append(univ, v)
		} else {
			rest = append(rest, v)
		}
	}
	for _, v := range univ {
		f.AddUniversal(v)
	}
	for _, v := range rest {
		f.AddExistential(v, univ...)
	}
	for _, a := range af.Ands {
		f.AddExistential(cnf.Var(a[0]/2), univ...)
	}

	// The constant-true variable, allocated lazily for literals 0/1.
	var constVar cnf.Var
	constTrue := func() cnf.Lit {
		if constVar == 0 {
			constVar = f.Matrix.NewVar()
			f.AddExistential(constVar, univ...)
			f.Matrix.AddClause(cnf.PosLit(constVar))
		}
		return cnf.PosLit(constVar)
	}
	lit := func(l int) cnf.Lit {
		if l <= 1 {
			t := constTrue()
			if l == 0 {
				return t.Not()
			}
			return t
		}
		b := cnf.PosLit(cnf.Var(l / 2))
		if l&1 == 1 {
			b = b.Not()
		}
		return b
	}
	for _, a := range af.Ands {
		g := cnf.PosLit(cnf.Var(a[0] / 2))
		r0, r1 := lit(a[1]), lit(a[2])
		f.Matrix.AddClause(g.Not(), r0)
		f.Matrix.AddClause(g.Not(), r1)
		f.Matrix.AddClause(g, r0.Not(), r1.Not())
	}
	for _, o := range af.Outputs {
		f.Matrix.AddClause(lit(o))
	}

	p := FromDQBF(f)
	p.Format = FormatAIGER
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
