package core

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/dqbf"
)

func TestSubsumptionRemovesSupersets(t *testing.T) {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddExistential(2, 1)
	f.AddExistential(3, 1)
	f.Matrix.AddDimacsClause(2, 3)
	f.Matrix.AddDimacsClause(2, 3, -1) // subsumed by (2 3)
	f.Matrix.AddDimacsClause(-2, 3, 1)
	pr, err := Preprocess(f, false)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Subsumed != 1 {
		t.Fatalf("Subsumed = %d, want 1", pr.Subsumed)
	}
}

func TestStrengthening(t *testing.T) {
	// (2 ∨ 3) and (¬2 ∨ 3 ∨ 4): self-subsuming resolution on 2 is blocked
	// (2∨3 has no literal 4)... use the textbook pair:
	// C = (2 ∨ 3 ∨ 4), D = (¬2 ∨ 3): D\{¬2} ⊆ C\{2} ⇒ C becomes (3 ∨ 4).
	f := dqbf.New()
	for v := 2; v <= 4; v++ {
		f.AddExistential(cnf.Var(v))
	}
	f.Matrix.AddDimacsClause(2, 3, 4)
	f.Matrix.AddDimacsClause(-2, 3)
	f.Matrix.AddDimacsClause(2, -3, 4) // keeps the instance undecided
	pr, err := Preprocess(f, false)
	if err != nil {
		t.Fatal(err)
	}
	if pr.Strengthened == 0 {
		t.Fatal("no literal strengthened")
	}
}

func TestSubsumptionPreservesSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(3003))
	for iter := 0; iter < 150; iter++ {
		f := randomDQBF(rng, 1+rng.Intn(3), 1+rng.Intn(3), 3+rng.Intn(12))
		want, err := dqbf.BruteForce(f)
		if err != nil {
			t.Fatal(err)
		}
		work := f.Clone()
		p := newPreprocessor(work, nil)
		// Normalize first (subsumption assumes normalized clauses).
		norm := work.Matrix.Clauses[:0]
		for _, c := range work.Matrix.Clauses {
			nc, taut := c.Normalize()
			if taut {
				continue
			}
			norm = append(norm, nc)
		}
		work.Matrix.Clauses = norm
		p.subsumeOnce()
		p.strengthenOnce()
		if p.res.Decided {
			if p.res.Value != want {
				t.Fatalf("iter %d: strengthening decided %v, want %v", iter, p.res.Value, want)
			}
			continue
		}
		got, err := dqbf.BruteForce(work)
		if err != nil {
			t.Fatal(err)
		}
		if got != want {
			t.Fatalf("iter %d: semantics changed: %v -> %v\nbefore %v\nafter %v",
				iter, want, got, f.Matrix.Clauses, work.Matrix.Clauses)
		}
	}
}

func TestClauseSigSubsetProperty(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for iter := 0; iter < 200; iter++ {
		var c, d cnf.Clause
		for v := cnf.Var(1); v <= 10; v++ {
			if rng.Intn(3) == 0 {
				l := cnf.NewLit(v, rng.Intn(2) == 0)
				c = append(c, l)
				d = append(d, l)
			} else if rng.Intn(2) == 0 {
				d = append(d, cnf.NewLit(v, rng.Intn(2) == 0))
			}
		}
		// c ⊆ d by construction: signature must not rule it out.
		if clauseSig(c)&^clauseSig(d) != 0 {
			t.Fatalf("iter %d: signature violates subset property", iter)
		}
		if !subsumes(c, d) {
			t.Fatalf("iter %d: subsumes(c,d) false for c ⊆ d", iter)
		}
	}
}
