package refute

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/dqbf"
)

func crossExample() *dqbf.Formula {
	// ∀x1∀x2 ∃y1(x2) ∃y2(x1): (y1↔x1)∧(y2↔x2) — unsatisfiable.
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddExistential(3, 2)
	f.AddExistential(4, 1)
	f.Matrix.AddDimacsClause(-3, 1)
	f.Matrix.AddDimacsClause(3, -1)
	f.Matrix.AddDimacsClause(-4, 2)
	f.Matrix.AddDimacsClause(4, -2)
	return f
}

func paperExample1() *dqbf.Formula {
	f := crossExample()
	f.Deps[3] = dqbf.NewVarSet(1)
	f.Deps[4] = dqbf.NewVarSet(2)
	return f
}

func TestRefutesCrossDependency(t *testing.T) {
	res := Refute(crossExample())
	if res.Verdict != Refuted {
		t.Fatalf("verdict = %v, want REFUTED", res.Verdict)
	}
	if res.Stats.Assignments == 0 || res.Stats.SATCalls == 0 {
		t.Fatal("stats empty")
	}
}

func TestSatisfiedOnFullCoverage(t *testing.T) {
	res := Refute(paperExample1())
	if res.Verdict != Satisfied {
		t.Fatalf("verdict = %v, want SATISFIED (pool covers all 4 assignments)", res.Verdict)
	}
}

func TestInconclusiveOnTinyBudget(t *testing.T) {
	// ∀x1..x9 ∃y(x1): y ↔ x1 is satisfiable, so it is never refuted, and its
	// 2^9 assignments exceed the pool, so it is never settled either.
	f := dqbf.New()
	for i := 1; i <= 9; i++ {
		f.AddUniversal(cnf.Var(i))
	}
	f.AddExistential(10, 1)
	f.Matrix.AddDimacsClause(-10, 1)
	f.Matrix.AddDimacsClause(10, -1)
	if 1<<len(f.Univ) <= MaxAssignments {
		t.Fatalf("%d universals fit the pool of %d", len(f.Univ), MaxAssignments)
	}
	res := Refute(f)
	if res.Verdict != Inconclusive {
		t.Fatalf("verdict = %v, want INCONCLUSIVE", res.Verdict)
	}
	if res.Stats.Assignments != MaxAssignments {
		t.Fatalf("assignments = %d, want the full pool of %d", res.Stats.Assignments, MaxAssignments)
	}
}

func TestRandomPhaseCoversHighUniversals(t *testing.T) {
	// In the random phase, universals i and i+64 must not be tied to one
	// bit of the generator.
	const n = 130
	g := newGen(n)
	for k := 0; k < 2+2*n; k++ { // all-zero, all-one, one-hot, one-cold
		g.next()
	}
	differs := make([]bool, n-64)
	for k := 0; k < 64; k++ {
		a, ok := g.next()
		if !ok {
			t.Fatal("generator ended early")
		}
		for i := range differs {
			differs[i] = differs[i] || a[i] != a[i+64]
		}
	}
	for i, d := range differs {
		if !d {
			t.Fatalf("universals %d and %d are equal in every random assignment", i, i+64)
		}
	}
}

func TestNeverRefutesSatisfiable(t *testing.T) {
	// Soundness: on satisfiable formulas the refuter must never say REFUTED.
	rng := rand.New(rand.NewSource(42))
	for iter := 0; iter < 150; iter++ {
		f := dqbf.RandomFormula(rng, 1+rng.Intn(3), 1+rng.Intn(3), 2+rng.Intn(10))
		want, err := dqbf.BruteForce(f)
		if err != nil {
			t.Fatal(err)
		}
		res := Refute(f)
		switch res.Verdict {
		case Refuted:
			if want {
				t.Fatalf("iter %d: refuted a satisfiable formula\n%v\n%v", iter, f, f.Matrix.Clauses)
			}
		case Satisfied:
			if !want {
				t.Fatalf("iter %d: satisfied an unsatisfiable formula", iter)
			}
		}
	}
}

func TestCompleteOnSmallFormulas(t *testing.T) {
	// With few universals the default budget covers the full expansion, so
	// the refuter becomes a decision procedure.
	rng := rand.New(rand.NewSource(43))
	conclusive := 0
	for iter := 0; iter < 60; iter++ {
		f := dqbf.RandomFormula(rng, 2, 2, 3+rng.Intn(6))
		want, err := dqbf.BruteForce(f)
		if err != nil {
			t.Fatal(err)
		}
		res := Refute(f)
		if res.Verdict == Inconclusive {
			continue
		}
		conclusive++
		got := res.Verdict == Satisfied
		if got != want {
			t.Fatalf("iter %d: verdict %v, brute force %v", iter, res.Verdict, want)
		}
	}
	if conclusive < 50 {
		t.Fatalf("only %d/60 conclusive with full coverage budget", conclusive)
	}
}

func TestNoUniversals(t *testing.T) {
	f := dqbf.New()
	f.AddExistential(1)
	f.Matrix.AddDimacsClause(1)
	if res := Refute(f); res.Verdict != Satisfied {
		t.Fatalf("SAT instance: %v", res.Verdict)
	}
	f2 := dqbf.New()
	f2.AddExistential(1)
	f2.Matrix.AddDimacsClause(1)
	f2.Matrix.AddDimacsClause(-1)
	if res := Refute(f2); res.Verdict != Refuted {
		t.Fatalf("UNSAT instance: %v", res.Verdict)
	}
}

// TestTotalTimeReported pins that the deferred timer reaches the returned
// result: Stats.TotalTime covers the whole refutation attempt.
func TestTotalTimeReported(t *testing.T) {
	if res := Refute(paperExample1()); res.Stats.TotalTime <= 0 {
		t.Fatalf("TotalTime = %v, want > 0", res.Stats.TotalTime)
	}
}
