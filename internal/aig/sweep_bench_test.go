package aig

import (
	"testing"

	"repro/internal/cnf"
)

// BenchmarkSweepRedundant measures the wall-clock of one full sweep
// (simulation, candidate checks, rebuild) over a freshly built redundant
// cone of 72 inputs, too many for truth tables, so its pairs are decided by
// hashing or SAT.
func BenchmarkSweepRedundant(b *testing.B) {
	b.ReportAllocs()
	var st SweepStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := New()
		r := buildRedundantCone(g, 24)
		b.StartTimer()
		_, st = g.Sweep(r, testSweepOptions(g, SweepOptions{}))
		if st.Merged == 0 || st.SatCalls == 0 {
			b.Fatalf("benchmark cone made %d merges and %d SAT calls; want both > 0", st.Merged, st.SatCalls)
		}
	}
	b.ReportMetric(float64(st.SatCalls), "satcalls/op")
}

// BenchmarkSweepFalseCandidates sweeps a cone whose candidates are mostly
// simulation-equal but inequivalent (see buildFalseCandidateCone), the case
// counterexample simulation exists for: the reported satcalls/op and
// simrefuted/op show how many refutations it took off the SAT solver.
func BenchmarkSweepFalseCandidates(b *testing.B) {
	b.ReportAllocs()
	var st SweepStats
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := New()
		r := buildFalseCandidateCone(g, 48)
		b.StartTimer()
		_, st = g.Sweep(r, testSweepOptions(g, SweepOptions{}))
		if st.SimRefuted == 0 {
			b.Fatal("benchmark cone produced no simulation refutations")
		}
	}
	b.ReportMetric(float64(st.Candidates), "candidates/op")
	b.ReportMetric(float64(st.SatCalls), "satcalls/op")
	b.ReportMetric(float64(st.SimRefuted), "simrefuted/op")
}

// BenchmarkSweepRounds measures consecutive sweeps on one oracle pool, the
// shape of HQS's linear phase: each round's cone is the previous round's
// swept cone plus new redundant groups and wide parity pairs on fresh
// inputs (see wideGroups), so every sweep after the first checks a cone
// that overlaps what the pool's earlier sweeps saw, and every round has
// pairs only SAT decides. satcalls/op sums the three sweeps' SAT calls.
func BenchmarkSweepRounds(b *testing.B) {
	const rounds, groups, wide = 3, 8, 2
	const inputs = 3*groups + (exactInputs+1)*wide // per round
	b.ReportAllocs()
	satCalls := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := New()
		opt := testSweepOptions(g, SweepOptions{})
		r := False
		b.StartTimer()
		satCalls = 0
		for k := 0; k < rounds; k++ {
			parts := wideGroups(g, cnf.Var(1+inputs*k), groups, wide)
			var st SweepStats
			r, st = g.Sweep(g.OrN(append(parts, r)...), opt)
			if st.Merged == 0 || st.SatCalls == 0 {
				b.Fatalf("round %d made %d merges and %d SAT calls; want both > 0", k, st.Merged, st.SatCalls)
			}
			satCalls += st.SatCalls
		}
	}
	b.ReportMetric(float64(satCalls), "satcalls/op")
}
