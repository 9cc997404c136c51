package idq

import (
	"errors"
	"math/rand"
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cert"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/faults"
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

func TestPaperExample1(t *testing.T) {
	res := New(Options{}).Solve(paperExample1())
	if res.Status != Solved || !res.Sat {
		t.Fatalf("got %v/%v, want solved SAT", res.Status, res.Sat)
	}
	if res.Stats.Iterations == 0 || res.Stats.VerifySAT == 0 {
		t.Fatal("stats not populated")
	}
}

func TestCrossDependencyUnsat(t *testing.T) {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddExistential(3, 2)
	f.AddExistential(4, 1)
	f.Matrix.AddDimacsClause(-3, 1)
	f.Matrix.AddDimacsClause(3, -1)
	f.Matrix.AddDimacsClause(-4, 2)
	f.Matrix.AddDimacsClause(4, -2)
	res := New(Options{}).Solve(f)
	if res.Status != Solved || res.Sat {
		t.Fatalf("got %v/%v, want solved UNSAT", res.Status, res.Sat)
	}
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

func TestRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(888))
	for iter := 0; iter < 250; iter++ {
		f := randomDQBF(rng, 1+rng.Intn(3), 1+rng.Intn(3), 2+rng.Intn(10))
		want, err := dqbf.BruteForce(f)
		if err != nil {
			t.Fatal(err)
		}
		res := New(Options{}).Solve(f)
		if res.Status != Solved {
			t.Fatalf("iter %d: status %v", iter, res.Status)
		}
		if res.Sat != want {
			t.Fatalf("iter %d: got %v want %v\n%v\n%v", iter, res.Sat, want, f, f.Matrix.Clauses)
		}
		// SAT verdicts must come with a valid Skolem certificate.
		if res.Sat {
			if res.Certificate == nil {
				t.Fatalf("iter %d: SAT without certificate", iter)
			}
			if err := cert.Check(f, res.Certificate); err != nil {
				t.Fatalf("iter %d: certificate rejected: %v", iter, err)
			}
		} else if res.Certificate != nil {
			t.Fatalf("iter %d: UNSAT with certificate", iter)
		}
	}
}

func TestCertificateForExample1(t *testing.T) {
	res := New(Options{}).Solve(paperExample1())
	if !res.Sat || res.Certificate == nil {
		t.Fatal("expected SAT with certificate")
	}
	if err := cert.Check(paperExample1(), res.Certificate); err != nil {
		t.Fatalf("certificate invalid: %v", err)
	}
}

func TestAgreesWithHQSOnLargerInstances(t *testing.T) {
	rng := rand.New(rand.NewSource(999))
	hqs := core.New(core.DefaultOptions())
	for iter := 0; iter < 30; iter++ {
		f := randomDQBF(rng, 2+rng.Intn(4), 2+rng.Intn(4), 5+rng.Intn(20))
		ref := hqs.Solve(problem.FromDQBF(f))
		if ref.Status != core.Solved {
			t.Fatalf("iter %d: HQS status %v", iter, ref.Status)
		}
		res := New(Options{}).Solve(f)
		if res.Status != Solved || res.Sat != ref.Sat {
			t.Fatalf("iter %d: iDQ %v/%v, HQS %v", iter, res.Status, res.Sat, ref.Sat)
		}
	}
}

func TestEmptyMatrix(t *testing.T) {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddExistential(2, 1)
	res := New(Options{}).Solve(f)
	if !res.Sat {
		t.Fatal("empty matrix must be SAT")
	}
}

func TestNoUniversals(t *testing.T) {
	f := dqbf.New()
	f.AddExistential(1)
	f.AddExistential(2)
	f.Matrix.AddDimacsClause(1, 2)
	f.Matrix.AddDimacsClause(-1, 2)
	res := New(Options{}).Solve(f)
	if !res.Sat {
		t.Fatal("satisfiable SAT instance must be SAT")
	}
	f.Matrix.AddDimacsClause(-2)
	f.Matrix.AddDimacsClause(1, -2)
	res = New(Options{}).Solve(f)
	if res.Sat {
		t.Fatal("unsatisfiable SAT instance must be UNSAT")
	}
}

func TestTimeout(t *testing.T) {
	f := randomDQBF(rand.New(rand.NewSource(3)), 8, 8, 40)
	res := New(Options{Budget: budget.New(budget.Limits{Timeout: time.Nanosecond})}).Solve(f)
	if res.Status != Timeout {
		t.Fatalf("status = %v, want timeout", res.Status)
	}
}

// TestOracleErrorFails: on paper Example 1, a one-shot injected error at
// sat.solve fails the solve with that error, while a one-shot spurious
// Unknown cancels it. Either fault fires exactly once.
func TestOracleErrorFails(t *testing.T) {
	for _, tc := range []struct {
		action string
		want   Status
	}{
		{"error", Failed},
		{"unknown", Cancelled},
	} {
		plan, err := faults.ParseSpec("sat.solve:"+tc.action+":times=1", 1)
		if err != nil {
			t.Fatal(err)
		}
		res := New(Options{Budget: budget.New(budget.Limits{Faults: plan})}).Solve(paperExample1())
		if res.Status != tc.want {
			t.Fatalf("%s: status %v (%v), want %v", tc.action, res.Status, res.Err, tc.want)
		}
		if n := plan.Fires(faults.SATSolve); n != 1 {
			t.Fatalf("%s: the fault fired %d times, want 1", tc.action, n)
		}
		if tc.want == Cancelled {
			if res.Err != nil {
				t.Fatalf("unknown: error %v on a cancelled solve", res.Err)
			}
			continue
		}
		if !errors.Is(res.Err, faults.ErrInjected) || !strings.Contains(res.Err.Error(), string(faults.SATSolve)) {
			t.Fatalf("error: %v does not name the injected %s failure", res.Err, faults.SATSolve)
		}
	}
}

func TestInstantiationBudget(t *testing.T) {
	// Example 1 needs at least one refinement round (the all-zero default
	// tables are falsified by x1=1), so a budget of one instantiated clause
	// must trip the memout path on the following iteration.
	res := New(Options{MaxInstantiations: 1}).Solve(paperExample1())
	if res.Status != Memout {
		t.Fatalf("status = %v (stats %+v), want memout", res.Status, res.Stats)
	}
}

func TestStatusString(t *testing.T) {
	if Solved.String() != "solved" || Timeout.String() != "timeout" || Memout.String() != "memout" || Failed.String() != "error" {
		t.Fatal("Status.String broken")
	}
}

func TestInputNotModified(t *testing.T) {
	f := paperExample1()
	before := f.String()
	New(Options{}).Solve(f)
	if f.String() != before {
		t.Fatal("Solve modified its input")
	}
}

// TestTotalTimeReported pins that the deferred timer reaches the returned
// result: Stats.TotalTime covers the whole solve.
func TestTotalTimeReported(t *testing.T) {
	if res := New(Options{}).Solve(paperExample1()); res.Stats.TotalTime <= 0 {
		t.Fatalf("TotalTime = %v, want > 0", res.Stats.TotalTime)
	}
}
