package sat

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// buildChainFormula builds a propagation-heavy instance: n variables linked by
// implication chains plus random ternary clauses. Deciding the first variable
// floods unit propagation through the chains, which is exactly the hot path
// the packed clause arena targets.
func buildChainFormula(n, extra int, seed int64) *cnf.Formula {
	rng := rand.New(rand.NewSource(seed))
	f := cnf.NewFormula(n)
	for v := 1; v < n; v++ {
		// v -> v+1
		f.AddClause(cnf.NegLit(cnf.Var(v)), cnf.PosLit(cnf.Var(v+1)))
	}
	for i := 0; i < extra; i++ {
		a := cnf.Var(1 + rng.Intn(n))
		b := cnf.Var(1 + rng.Intn(n))
		c := cnf.Var(1 + rng.Intn(n))
		if a == b || b == c || a == c {
			continue
		}
		f.AddClause(cnf.NewLit(a, rng.Intn(2) == 0), cnf.NewLit(b, rng.Intn(2) == 0), cnf.PosLit(c))
	}
	return f
}

// BenchmarkPropagate measures raw unit-propagation throughput: one decision
// triggers ~n propagations across long watch lists. ns/op and allocs/op are
// the metrics the packed-arena layout is judged on.
func BenchmarkPropagate(b *testing.B) {
	f := buildChainFormula(2000, 6000, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		s := New()
		if !addFormula(s, f) {
			b.Fatal("formula trivially UNSAT")
		}
		b.StartTimer()
		if status(s.Solve([]cnf.Lit{cnf.PosLit(1)}, nil)) == Unknown {
			b.Fatal("unexpected Unknown")
		}
	}
}

// BenchmarkSolveRandom3SAT measures full CDCL search (propagation, conflict
// analysis, clause learning, reduceDB) on moderately hard random 3-SAT near
// the phase transition.
func BenchmarkSolveRandom3SAT(b *testing.B) {
	const nVars = 120
	rng := rand.New(rand.NewSource(7))
	f := cnf.NewFormula(nVars)
	for i := 0; i < nVars*42/10; i++ {
		var c cnf.Clause
		used := map[int]bool{}
		for len(c) < 3 {
			v := 1 + rng.Intn(nVars)
			if used[v] {
				continue
			}
			used[v] = true
			c = append(c, cnf.NewLit(cnf.Var(v), rng.Intn(2) == 0))
		}
		f.Clauses = append(f.Clauses, c)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New()
		if !addFormula(s, f) {
			b.Fatal("trivially UNSAT")
		}
		if status(s.Solve(nil, nil)) == Unknown {
			b.Fatal("unexpected Unknown")
		}
	}
}

// BenchmarkIncrementalAssumptions measures the sweep-style workload: one
// clause database queried many times under flipping assumptions.
func BenchmarkIncrementalAssumptions(b *testing.B) {
	f := buildChainFormula(600, 1800, 3)
	s := New()
	if !addFormula(s, f) {
		b.Fatal("formula trivially UNSAT")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v := cnf.Var(1 + i%600)
		s.Solve([]cnf.Lit{cnf.NewLit(v, i%2 == 0)}, nil)
	}
}
