package dqbf

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/cnf"
)

// checkPrefix asserts the quantifier prefix of f: the universal order, the
// existential order, and each existential's dependency set.
func checkPrefix(t *testing.T, f *Formula, univ, exist []cnf.Var, deps map[cnf.Var][]cnf.Var) {
	t.Helper()
	if !slices.Equal(f.Univ, univ) {
		t.Fatalf("Univ = %v, want %v", f.Univ, univ)
	}
	if !slices.Equal(f.Exist, exist) {
		t.Fatalf("Exist = %v, want %v", f.Exist, exist)
	}
	for _, y := range exist {
		if got := f.Deps[y].Vars(); !slices.Equal(got, deps[y]) {
			t.Fatalf("Deps[%d] = %v, want %v", y, got, deps[y])
		}
	}
}

// TestQDIMACSWriteParseFixpoint reads plain QDIMACS, whose alternating
// blocks give each "e" line the universals declared before it, and checks
// the prefix directly. The formula read is then a DQDIMACS
// write→parse→write fixpoint, and the round trip keeps every dependency set.
func TestQDIMACSWriteParseFixpoint(t *testing.T) {
	cases := []struct {
		name        string
		src         string
		univ, exist []cnf.Var
		deps        map[cnf.Var][]cnf.Var
	}{
		{"interleaved blocks",
			"p cnf 5 2\ne 3 0\na 1 0\ne 4 0\na 2 0\ne 5 0\n3 -1 0\n4 2 -5 0\n",
			[]cnf.Var{1, 2}, []cnf.Var{3, 4, 5},
			map[cnf.Var][]cnf.Var{3: nil, 4: {1}, 5: {1, 2}}},
		{"trailing universals",
			"p cnf 3 1\na 2 0\ne 1 0\na 3 0\n1 3 0\n",
			[]cnf.Var{2, 3}, []cnf.Var{1},
			map[cnf.Var][]cnf.Var{1: {2}}},
		{"no existentials",
			"p cnf 2 1\na 1 2 0\n1 2 0\n",
			[]cnf.Var{1, 2}, nil, nil},
		{"propositional",
			"p cnf 2 1\ne 1 2 0\n-1 2 0\n",
			nil, []cnf.Var{1, 2},
			map[cnf.Var][]cnf.Var{1: nil, 2: nil}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			f, err := ParseDQDIMACS([]byte(tc.src))
			if err != nil {
				t.Fatalf("parse: %v", err)
			}
			checkPrefix(t, f, tc.univ, tc.exist, tc.deps)
			var first bytes.Buffer
			if err := f.WriteDQDIMACS(&first); err != nil {
				t.Fatalf("write: %v", err)
			}
			parsed, err := ParseDQDIMACS(first.Bytes())
			if err != nil {
				t.Fatalf("parse own output: %v\n%s", err, first.Bytes())
			}
			// The writer's "e" line gathers the existentials that depend
			// on every universal, so only the existential order may move.
			if len(parsed.Exist) != len(tc.exist) || !NewVarSet(parsed.Exist...).Equal(NewVarSet(tc.exist...)) {
				t.Fatalf("round trip Exist = %v, want a permutation of %v", parsed.Exist, tc.exist)
			}
			checkPrefix(t, parsed, tc.univ, parsed.Exist, tc.deps)
			var second bytes.Buffer
			if err := parsed.WriteDQDIMACS(&second); err != nil {
				t.Fatalf("rewrite: %v", err)
			}
			if !bytes.Equal(first.Bytes(), second.Bytes()) {
				t.Fatalf("write→parse→write not a fixpoint:\nfirst:\n%s\nsecond:\n%s",
					first.Bytes(), second.Bytes())
			}
		})
	}
}

// TestQDIMACSSourceFixpoint reads QDIMACS text whose first "e" block is
// unsorted and precedes every universal: the existentials keep the order
// of the text, and the clauses are read verbatim.
func TestQDIMACSSourceFixpoint(t *testing.T) {
	src := `p cnf 4 2
e 4 0
a 1 0
e 2 3 0
1 2 0
-1 3 -4 0
`
	f, err := ParseDQDIMACS([]byte(src))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	checkPrefix(t, f, []cnf.Var{1}, []cnf.Var{4, 2, 3},
		map[cnf.Var][]cnf.Var{4: nil, 2: {1}, 3: {1}})
	want := []cnf.Clause{
		{cnf.PosLit(1), cnf.PosLit(2)},
		{cnf.NegLit(1), cnf.PosLit(3), cnf.NegLit(4)},
	}
	if !slices.EqualFunc(f.Matrix.Clauses, want, slices.Equal) {
		t.Fatalf("clauses = %v, want %v", f.Matrix.Clauses, want)
	}
}
