package core

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/dqbf"
)

// fuzzDQBF builds a small valid DQBF from data. data[0] picks one to three
// universals and one to four existentials, the next byte per existential
// is its dependency set as a bitmask over the universals, and every later
// byte is a literal: the low six bits pick the variable, bit 7 negates it
// and bit 6 closes the clause. Duplicate and complementary literals are
// kept, so the preprocessor's own normalization is exercised.
func fuzzDQBF(data []byte) *dqbf.Formula {
	if len(data) == 0 {
		return nil
	}
	nUniv, nExist := 1+int(data[0])%3, 1+int(data[0]/3)%4
	data = data[1:]
	if len(data) < nExist {
		return nil
	}
	f := dqbf.New()
	for x := 1; x <= nUniv; x++ {
		f.AddUniversal(cnf.Var(x))
	}
	for i := 0; i < nExist; i++ {
		var deps []cnf.Var
		for x := 1; x <= nUniv; x++ {
			if data[i]&(1<<(x-1)) != 0 {
				deps = append(deps, cnf.Var(x))
			}
		}
		f.AddExistential(cnf.Var(nUniv+1+i), deps...)
	}
	n := nUniv + nExist
	var c cnf.Clause
	for _, b := range data[nExist:] {
		if len(f.Matrix.Clauses) == 24 {
			break
		}
		c = append(c, cnf.NewLit(cnf.Var(1+int(b&0x3f)%n), b&0x80 != 0))
		if b&0x40 != 0 {
			f.Matrix.AddClause(c...)
			c = nil
		}
	}
	if len(c) > 0 && len(f.Matrix.Clauses) < 24 {
		f.Matrix.AddClause(c...)
	}
	return f
}

// skolemBits is the brute-force cost of f: Σ_y 2^|D_y|.
func skolemBits(f *dqbf.Formula) int {
	bits := 0
	for _, y := range f.Exist {
		bits += 1 << f.Deps[y].Len()
	}
	return bits
}

// FuzzPreprocess runs CNF preprocessing, with and without gate detection,
// on fuzz-built DQBFs. It must not fail; every clause it leaves must be
// sorted, free of duplicate literals and non-tautological; and the verdict
// it leaves — decided, or the remaining formula with the detected gates
// re-encoded as clauses — must equal brute force on the input.
func FuzzPreprocess(f *testing.F) {
	f.Add([]byte{3, 1, 2, 0x82, 0x40 | 0, 0x02, 0x40 | 0x80, 0x83, 0x40 | 1, 0x03, 0x40 | 0x81})
	f.Add([]byte{6, 3, 3, 3, 0x82, 0x40 | 0x83, 0x02, 0x40 | 0, 0x03, 0x40 | 0, 0x84, 0x00, 0x40 | 0x01})
	f.Add([]byte{1, 1, 0x01, 0x02, 0x40 | 0x02, 0x81, 0x82, 0x40 | 0x82, 0x01, 0x82, 0x40 | 0x82, 0x81, 0x02, 0x40 | 0x02})
	f.Fuzz(func(t *testing.T, data []byte) {
		in := fuzzDQBF(data)
		if in == nil || skolemBits(in) > 12 {
			return
		}
		want, err := dqbf.BruteForce(in)
		if err != nil {
			t.Fatal(err)
		}
		for _, gates := range []bool{false, true} {
			work := in.Clone()
			pr, err := Preprocess(work, gates)
			if err != nil {
				t.Fatalf("gates=%v: %v", gates, err)
			}
			if pr.Decided {
				if pr.Value != want {
					t.Fatalf("gates=%v: decided %v, brute force %v\n%v %v", gates, pr.Value, want, in, in.Matrix.Clauses)
				}
				continue
			}
			for _, c := range work.Matrix.Clauses {
				for i := 1; i < len(c); i++ {
					if c[i-1].Var() >= c[i].Var() {
						t.Fatalf("gates=%v: clause %v unsorted, duplicated or tautological", gates, c)
					}
				}
			}
			rebuilt := rebuildWithGates(work, pr.Gates)
			if skolemBits(rebuilt) > 16 {
				continue
			}
			got, err := dqbf.BruteForce(rebuilt)
			if err != nil {
				t.Fatal(err)
			}
			if got != want {
				t.Fatalf("gates=%v: preprocessed formula is %v, brute force %v\nbefore %v %v\nafter %v %v gates %v",
					gates, got, want, in, in.Matrix.Clauses, work, work.Matrix.Clauses, pr.Gates)
			}
		}
	})
}
