package expand

import (
	"errors"
	"math/rand"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/idq"
	"repro/internal/problem"
)

func paperExample1() *dqbf.Formula {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddExistential(3, 1)
	f.AddExistential(4, 2)
	f.Matrix.AddDimacsClause(-3, 1)
	f.Matrix.AddDimacsClause(3, -1)
	f.Matrix.AddDimacsClause(-4, 2)
	f.Matrix.AddDimacsClause(4, -2)
	return f
}

func randomDQBF(rng *rand.Rand, nUniv, nExist, nClauses int) *dqbf.Formula {
	f := dqbf.New()
	for i := 1; i <= nUniv; i++ {
		f.AddUniversal(cnf.Var(i))
	}
	for i := 0; i < nExist; i++ {
		y := cnf.Var(nUniv + i + 1)
		var deps []cnf.Var
		for _, x := range f.Univ {
			if rng.Intn(2) == 0 {
				deps = append(deps, x)
			}
		}
		f.AddExistential(y, deps...)
	}
	n := nUniv + nExist
	for i := 0; i < nClauses; i++ {
		k := 1 + rng.Intn(3)
		c := make(cnf.Clause, 0, k)
		for j := 0; j < k; j++ {
			c = append(c, cnf.NewLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0))
		}
		f.Matrix.Clauses = append(f.Matrix.Clauses, c)
	}
	return f
}

func TestPaperExample1(t *testing.T) {
	res, err := New(Options{}).Solve(paperExample1())
	if err != nil {
		t.Fatal(err)
	}
	if !res.Sat {
		t.Fatal("Example 1 is satisfiable")
	}
	if res.Stats.Instances != 4 {
		t.Fatalf("expected 4 expansion instances, got %d", res.Stats.Instances)
	}
	// y1 has 2 copies (over x1), y2 has 2 copies (over x2).
	if res.Stats.Copies != 4 {
		t.Fatalf("expected 4 existential copies, got %d", res.Stats.Copies)
	}
}

func TestAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(505))
	for iter := 0; iter < 200; iter++ {
		f := randomDQBF(rng, 1+rng.Intn(3), 1+rng.Intn(3), 2+rng.Intn(10))
		want, err := dqbf.BruteForce(f)
		if err != nil {
			t.Fatal(err)
		}
		res, err := New(Options{}).Solve(f)
		if err != nil {
			t.Fatal(err)
		}
		if res.Sat != want {
			t.Fatalf("iter %d: expand %v, brute force %v\n%v\n%v",
				iter, res.Sat, want, f, f.Matrix.Clauses)
		}
	}
}

func TestThreeWayAgreement(t *testing.T) {
	// expand, HQS and iDQ must agree on instances beyond brute-force reach.
	rng := rand.New(rand.NewSource(707))
	hqs := core.New(core.DefaultOptions())
	for iter := 0; iter < 25; iter++ {
		f := randomDQBF(rng, 2+rng.Intn(5), 2+rng.Intn(4), 5+rng.Intn(20))
		e, err := New(Options{}).Solve(f)
		if err != nil {
			t.Fatal(err)
		}
		h := hqs.Solve(problem.FromDQBF(f))
		q := idq.New(idq.Options{}).Solve(f)
		if h.Status != core.Solved || q.Status != idq.Solved {
			t.Fatalf("iter %d: solver did not finish (%v/%v)", iter, h.Status, q.Status)
		}
		if e.Sat != h.Sat || e.Sat != q.Sat {
			t.Fatalf("iter %d: expand=%v HQS=%v iDQ=%v", iter, e.Sat, h.Sat, q.Sat)
		}
	}
}

func TestUniversalLimit(t *testing.T) {
	mk := func(n int) *dqbf.Formula {
		f := dqbf.New()
		for i := 1; i <= n; i++ {
			f.AddUniversal(cnf.Var(i))
		}
		// One copy of y serves every instance, so the largest accepted
		// expansion stays cheap.
		f.AddExistential(cnf.Var(n + 1))
		f.Matrix.AddDimacsClause(n + 1)
		return f
	}
	if _, err := New(Options{}).Solve(mk(MaxUniversals + 1)); !errors.Is(err, ErrTooManyUniversals) {
		t.Fatalf("%d universals: err = %v, want ErrTooManyUniversals", MaxUniversals+1, err)
	}
	if res, err := New(Options{}).Solve(mk(MaxUniversals)); err != nil || !res.Sat {
		t.Fatalf("%d universals should solve: %v %v", MaxUniversals, res.Sat, err)
	}
}

func TestTimeout(t *testing.T) {
	f := randomDQBF(rand.New(rand.NewSource(8)), 18, 4, 30)
	b := budget.WithTimeout(time.Microsecond)
	time.Sleep(time.Millisecond) // the deadline has passed before the solve starts
	_, err := New(Options{Budget: b}).Solve(f)
	if !errors.Is(err, budget.ErrDeadline) {
		t.Fatalf("err = %v, want budget.ErrDeadline", err)
	}
}

func TestEmptyMatrixAndEmptyClause(t *testing.T) {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddExistential(2, 1)
	res, err := New(Options{}).Solve(f)
	if err != nil || !res.Sat {
		t.Fatalf("empty matrix: %v %v", res.Sat, err)
	}
	f.Matrix.Clauses = append(f.Matrix.Clauses, cnf.Clause{})
	res, err = New(Options{}).Solve(f)
	if err != nil || res.Sat {
		t.Fatalf("empty clause: %v %v", res.Sat, err)
	}
}

func TestSharedCopiesCountsOverlap(t *testing.T) {
	// Existential with empty dependency set gets exactly one copy across
	// all instances.
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddExistential(3)
	f.Matrix.AddDimacsClause(3, 1)
	f.Matrix.AddDimacsClause(3, -1, 2)
	res, err := New(Options{}).Solve(f)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Copies != 1 {
		t.Fatalf("copies = %d, want 1", res.Stats.Copies)
	}
	if !res.Sat {
		t.Fatal("y=1 satisfies everything")
	}
}

// TestTotalTimeReported pins that the deferred timer reaches the returned
// result: Stats.TotalTime covers the whole solve.
func TestTotalTimeReported(t *testing.T) {
	res, err := New(Options{}).Solve(paperExample1())
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.TotalTime <= 0 {
		t.Fatalf("TotalTime = %v, want > 0", res.Stats.TotalTime)
	}
}
