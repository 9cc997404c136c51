package sat

import (
	"errors"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cnf"
)

// addGatedPigeonhole adds PHP(n+1, n) — n+1 pigeons into n holes, a classic
// exponentially hard UNSAT family for CDCL — with every clause guarded by a
// fresh gate literal g, so the instance is hard under the assumption g and
// trivially satisfiable under ¬g. Returns g.
func addGatedPigeonhole(s *Solver, n int) cnf.Lit {
	g := cnf.PosLit(s.NewVar())
	p := make([][]cnf.Var, n+1)
	for i := range p {
		p[i] = make([]cnf.Var, n)
		for j := range p[i] {
			p[i][j] = s.NewVar()
		}
	}
	for i := 0; i <= n; i++ {
		c := []cnf.Lit{g.Not()}
		for j := 0; j < n; j++ {
			c = append(c, cnf.PosLit(p[i][j]))
		}
		s.AddClause(c...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= n; i++ {
			for k := i + 1; k <= n; k++ {
				s.AddClause(g.Not(), cnf.NegLit(p[i][j]), cnf.NegLit(p[k][j]))
			}
		}
	}
	return g
}

func TestBudgetCancelMidSolve(t *testing.T) {
	s := New()
	g := addGatedPigeonhole(s, 11)
	b := budget.New(budget.Limits{})
	s.Budget = b

	go func() {
		time.Sleep(50 * time.Millisecond)
		b.Cancel()
	}()
	start := time.Now()
	st, err := s.Solve([]cnf.Lit{g}, nil)
	elapsed := time.Since(start)
	if st != Unknown {
		t.Fatalf("want Unknown after cancellation, got %v (in %v)", st, elapsed)
	}
	if !errors.Is(err, budget.ErrCancelled) {
		t.Fatalf("want budget.ErrCancelled, got %v", err)
	}
	if elapsed > 5*time.Second {
		t.Fatalf("cancellation not prompt: took %v", elapsed)
	}
	if b.ConflictsUsed() == 0 {
		t.Fatal("budget metering recorded no conflicts mid-solve")
	}

	// The solver must stay reusable: with the gate off it is trivially SAT.
	s.Budget = nil
	if got := status(s.Solve([]cnf.Lit{g.Not()}, nil)); got != Sat {
		t.Fatalf("solver not reusable after cancel: got %v", got)
	}
}

func TestBudgetDeadline(t *testing.T) {
	s := New()
	g := addGatedPigeonhole(s, 11)
	s.Budget = budget.New(budget.Limits{Timeout: 100 * time.Millisecond})
	start := time.Now()
	st, err := s.Solve([]cnf.Lit{g}, nil)
	if st != Unknown || !errors.Is(err, budget.ErrDeadline) {
		t.Fatalf("want (Unknown, ErrDeadline), got (%v, %v)", st, err)
	}
	if elapsed := time.Since(start); elapsed > 5*time.Second {
		t.Fatalf("deadline not prompt: took %v", elapsed)
	}
}

func TestBudgetConflictCap(t *testing.T) {
	s := New()
	g := addGatedPigeonhole(s, 9)
	b := budget.New(budget.Limits{Conflicts: 100})
	s.Budget = b
	st, err := s.Solve([]cnf.Lit{g}, nil)
	if st != Unknown || !errors.Is(err, budget.ErrConflicts) {
		t.Fatalf("want (Unknown, ErrConflicts), got (%v, %v)", st, err)
	}
	if used := b.ConflictsUsed(); used < 100 || used > 200 {
		t.Fatalf("conflict meter off: %d", used)
	}
}

func TestBudgetDoesNotPerturbVerdicts(t *testing.T) {
	// A solvable instance under a generous budget must still be decided.
	s := New()
	g := addGatedPigeonhole(s, 4) // PHP(5,4): easy
	s.Budget = budget.New(budget.Limits{Timeout: time.Minute})
	if st := status(s.Solve([]cnf.Lit{g}, nil)); st != Unsat {
		t.Fatalf("PHP(5,4) must be Unsat, got %v", st)
	}
	if st := status(s.Solve([]cnf.Lit{g.Not()}, nil)); st != Sat {
		t.Fatalf("gated-off instance must be Sat, got %v", st)
	}
}
