package aig

import (
	"testing"

	"repro/internal/cnf"
)

// benchSweep measures the wall-clock of one full sweep (simulation, SAT
// candidate checks, rebuild) over a freshly built redundant cone, for a given
// worker pool size. Serial vs pool variants share the construction so the
// numbers compare directly.
func benchSweep(b *testing.B, workers int) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := New()
		r := buildRedundantCone(g, 24)
		b.StartTimer()
		_, st := g.Sweep(r, testSweepOptions(g, SweepOptions{Workers: workers}))
		if st.Merged == 0 {
			b.Fatal("benchmark cone produced no merges")
		}
	}
}

func BenchmarkSweepSerial(b *testing.B)      { benchSweep(b, 1) }
func BenchmarkSweepWorkers2(b *testing.B)    { benchSweep(b, 2) }
func BenchmarkSweepWorkers4(b *testing.B)    { benchSweep(b, 4) }
func BenchmarkSweepWorkersAuto(b *testing.B) { benchSweep(b, -1) }

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
		_, st = g.Sweep(r, testSweepOptions(g, SweepOptions{Workers: 1}))
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
// swept cone plus new redundant groups on fresh inputs, so every sweep after
// the first checks a cone that overlaps what the pool's earlier sweeps saw.
// satcalls/op sums the three sweeps' SAT calls.
func BenchmarkSweepRounds(b *testing.B) {
	const rounds, groups = 3, 8
	b.ReportAllocs()
	satCalls := 0
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		g := New()
		opt := testSweepOptions(g, SweepOptions{Workers: 1})
		r := False
		b.StartTimer()
		satCalls = 0
		for k := 0; k < rounds; k++ {
			parts := redundantGroups(g, cnf.Var(1+3*groups*k), groups)
			var st SweepStats
			r, st = g.Sweep(g.OrN(append(parts, r)...), opt)
			if st.Merged == 0 {
				b.Fatalf("round %d produced no merges", k)
			}
			satCalls += st.SatCalls
		}
	}
	b.ReportMetric(float64(satCalls), "satcalls/op")
}
