package core_test

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/dqbf"
)

// fuzzQBF builds a QBF in alternating quantifier blocks from data and
// returns it with its prefix, outermost block first; nil when data names no
// variable. data[0] picks up to four universals and data[1] up to six
// existentials, bit 0 of data[2] makes the outermost block existential, the
// next byte per block sizes it, and every existential depends on all
// universals of earlier blocks. Then one byte gives up to 20 clauses, and
// per clause one byte its length (1 to 3) and one byte per literal: bit 7
// negates it, the other bits pick the variable. Missing bytes read as 0.
func fuzzQBF(data []byte) (*dqbf.Formula, []dqbf.Block) {
	next := func() int {
		if len(data) == 0 {
			return 0
		}
		b := data[0]
		data = data[1:]
		return int(b)
	}
	rem := [2]int{next() % 5, next() % 7} // universals, existentials left
	n := rem[0] + rem[1]
	if n == 0 {
		return nil, nil
	}
	kind := next() & 1 // 0 universal, 1 existential
	f := dqbf.New()
	var prefix []dqbf.Block
	var outer []cnf.Var
	v := cnf.Var(0)
	for rem[0]+rem[1] > 0 {
		if rem[kind] == 0 {
			kind = 1 - kind
		}
		size := 1 + next()%rem[kind]
		if rem[1-kind] == 0 {
			size = rem[kind]
		}
		var b dqbf.Block
		for i := 0; i < size; i++ {
			v++
			if kind == 0 {
				f.AddUniversal(v)
				b.Univ = append(b.Univ, v)
			} else {
				f.AddExistential(v, outer...)
				b.Exist = append(b.Exist, v)
			}
		}
		outer = append(outer, b.Univ...)
		prefix = append(prefix, b)
		rem[kind] -= size
		kind = 1 - kind
	}
	for nc := next() % 21; nc > 0; nc-- {
		c := make(cnf.Clause, 0, 3)
		for k := 1 + next()%3; k > 0; k-- {
			b := next()
			c = append(c, cnf.NewLit(cnf.Var(1+(b&0x7f)%n), b&0x80 != 0))
		}
		f.Matrix.Clauses = append(f.Matrix.Clauses, c)
	}
	return f, prefix
}

// bruteQBF decides the QBF by expanding every variable in prefix order and
// evaluating the matrix under each full assignment.
func bruteQBF(prefix []dqbf.Block, m *cnf.Formula) bool {
	var order []cnf.Var
	univ := make(map[cnf.Var]bool)
	for _, b := range prefix {
		for _, x := range b.Univ {
			univ[x] = true
		}
		order = append(append(order, b.Univ...), b.Exist...)
	}
	a := cnf.NewAssignment(m.NumVars)
	var eval func(i int) bool
	eval = func(i int) bool {
		if i == len(order) {
			return m.Eval(a)
		}
		v := order[i]
		a.Set(v, false)
		lo := eval(i + 1)
		if lo != univ[v] {
			return lo // ∃ with a true branch, or ∀ with a false one
		}
		a.Set(v, true)
		return eval(i + 1)
	}
	return eval(0)
}

// FuzzLinearPhase solves fuzz-built QBFs with core.Solve, without CNF
// preprocessing so that the linear phase does the work, once as configured
// and once with every final SAT call failed at its seam. The verdict must
// equal brute force, and every SAT certificate must pass cert.Check.
func FuzzLinearPhase(f *testing.F) {
	f.Add([]byte{1, 1, 1, 0, 0, 2, 1, 0x81, 0x02, 1, 0x01, 0x82})                         // ∃y ∀x : y↔x
	f.Add([]byte{2, 2, 0, 0, 0, 0, 3, 2, 0x01, 0x82, 2, 0x81, 0x02, 3, 0x02, 0x03, 0x84}) // ∀∃∀∃
	f.Add([]byte{4, 6, 1, 1, 1, 1, 1, 20, 2, 0, 1, 3, 2, 3, 4, 1, 5, 2, 0x86, 0x87})
	f.Fuzz(func(t *testing.T, data []byte) {
		in, prefix := fuzzQBF(data)
		if in == nil {
			return
		}
		want := bruteQBF(prefix, in.Matrix)
		for _, opt := range []core.Options{linearOptions(), withPlan(t, linearOptions(), finalSATFault)} {
			res, _, _ := solveLinear(t, in, opt)
			if res.Status != core.Solved || res.Sat != want {
				t.Fatalf("got %v/%v, brute force %v\nformula: %v %v", res.Status, res.Sat, want, in, in.Matrix.Clauses)
			}
		}
	})
}
