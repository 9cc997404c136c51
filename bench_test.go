// Package repro's top-level benchmarks regenerate every evaluation artifact
// of the paper (see DESIGN.md §3 for the experiment index):
//
//   - BenchmarkTableI_* — one benchmark per Table I row: both solvers over a
//     generated slice of the family; reported metrics are the solved counts
//     and accumulated times of the row.
//   - BenchmarkFig4_Scatter — the runtime scatter of Fig. 4; the geometric
//     mean and maximum HQS-vs-iDQ speedups are reported as metrics.
//   - BenchmarkStats_InText — the in-text measurements (fraction solved
//     under 1 s, MaxSAT selection time, unit/pure share).
//   - BenchmarkMaxSATSelection — S2 in isolation: the elimination-set
//     MaxSAT computation alone.
//   - BenchmarkAblation_* — the design-choice ablations of DESIGN.md §4.
//
// Absolute numbers differ from the paper (different hardware, scaled-down
// instances, 3-second budgets instead of 2 hours); the reproduced claims are
// the qualitative ones: HQS solves strictly more instances per family, the
// unsolved iDQ runs are dominated by time-outs, and per-instance speedups
// reach several orders of magnitude.
package repro

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

func genOptions() bench.GenOptions {
	return bench.GenOptions{Count: 6, Seed: 20150309, MaxWidth: 4}
}

func runOptions() bench.RunOptions {
	opt := bench.DefaultRunOptions()
	opt.Timeout = 1 * time.Second
	opt.IDQMaxInstantiations = 500_000
	return opt
}

func familyInstances(b *testing.B, f bench.Family) []bench.Instance {
	b.Helper()
	insts, err := bench.Generate(f, genOptions())
	if err != nil {
		b.Fatal(err)
	}
	return insts
}

// benchTableRow runs one Table I row and reports its counters as metrics.
func benchTableRow(b *testing.B, family bench.Family) {
	insts := familyInstances(b, family)
	b.ResetTimer()
	var last *bench.Campaign
	for i := 0; i < b.N; i++ {
		last = bench.Run(insts, runOptions())
	}
	b.StopTimer()
	if d := last.Disagreements(); len(d) > 0 {
		b.Fatalf("solver disagreements: %v", d)
	}
	rows := bench.TableI(last)
	r := rows[0]
	if r.HQS.Solved < r.IDQ.Solved {
		b.Fatalf("paper shape violated: HQS %d < iDQ %d solved", r.HQS.Solved, r.IDQ.Solved)
	}
	b.ReportMetric(float64(r.HQS.Solved), "hqs-solved")
	b.ReportMetric(float64(r.IDQ.Solved), "idq-solved")
	b.ReportMetric(float64(r.IDQ.Timeouts), "idq-TO")
	b.ReportMetric(float64(r.IDQ.Memouts), "idq-MO")
	b.ReportMetric(r.HQS.TotalTime, "hqs-sec-common")
	b.ReportMetric(r.IDQ.TotalTime, "idq-sec-common")
}

func BenchmarkTableI_Adder(b *testing.B)     { benchTableRow(b, bench.FamilyAdder) }
func BenchmarkTableI_Bitcell(b *testing.B)   { benchTableRow(b, bench.FamilyBitcell) }
func BenchmarkTableI_Lookahead(b *testing.B) { benchTableRow(b, bench.FamilyLookahead) }
func BenchmarkTableI_PecXor(b *testing.B)    { benchTableRow(b, bench.FamilyPecXor) }
func BenchmarkTableI_Z4(b *testing.B)        { benchTableRow(b, bench.FamilyZ4) }
func BenchmarkTableI_Comp(b *testing.B)      { benchTableRow(b, bench.FamilyComp) }
func BenchmarkTableI_C432(b *testing.B)      { benchTableRow(b, bench.FamilyC432) }

func allInstances(b *testing.B) []bench.Instance {
	b.Helper()
	var all []bench.Instance
	for _, f := range bench.Families {
		all = append(all, familyInstances(b, f)...)
	}
	return all
}

// BenchmarkFig4_Scatter regenerates the Figure 4 comparison and reports the
// speedup distribution of the scatter.
func BenchmarkFig4_Scatter(b *testing.B) {
	all := allInstances(b)
	b.ResetTimer()
	var last *bench.Campaign
	for i := 0; i < b.N; i++ {
		last = bench.Run(all, runOptions())
	}
	b.StopTimer()
	points := bench.Figure4(last)
	if len(points) != len(all) {
		b.Fatalf("scatter has %d points for %d instances", len(points), len(all))
	}
	st := bench.ComputeStats(last)
	b.ReportMetric(st.SpeedupGeoMean, "speedup-geomean")
	b.ReportMetric(st.MaxSpeedup, "speedup-max")
	b.ReportMetric(float64(len(points)), "points")
}

// BenchmarkStats_InText regenerates the three in-text measurements.
func BenchmarkStats_InText(b *testing.B) {
	all := allInstances(b)
	b.ResetTimer()
	var st bench.Stats
	for i := 0; i < b.N; i++ {
		st = bench.ComputeStats(bench.Run(all, runOptions()))
	}
	b.StopTimer()
	b.ReportMetric(100*st.HQSSolvedUnder1s, "pct-under-1s")
	b.ReportMetric(st.MaxElimSetSeconds*1000, "maxsat-ms-max")
	b.ReportMetric(100*st.MaxUnitPureShare, "unitpure-pct-max")
}

// BenchmarkMaxSATSelection measures the elimination-set computation alone
// (the paper reports < 0.06 s on every instance).
func BenchmarkMaxSATSelection(b *testing.B) {
	all := allInstances(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst := all[i%len(all)]
		if _, err := core.SelectEliminationSet(inst.Formula, core.ElimMaxSAT); err != nil {
			b.Fatal(err)
		}
	}
}

// benchAblation runs one HQS variant against the default configuration.
func benchAblation(b *testing.B, name string) {
	var variants []bench.AblationVariant
	for _, v := range bench.AblationVariants() {
		if v.Name == "default(maxsat)" || v.Name == name {
			variants = append(variants, v)
		}
	}
	if len(variants) != 2 {
		b.Fatalf("unknown variant %q", name)
	}
	// A three-family subset keeps the sequential ablation runs short while
	// still covering adders, arbiters, and XOR chains.
	var all []bench.Instance
	for _, f := range []bench.Family{bench.FamilyAdder, bench.FamilyBitcell, bench.FamilyPecXor} {
		all = append(all, familyInstances(b, f)...)
	}
	b.ResetTimer()
	var rows []bench.AblationRow
	for i := 0; i < b.N; i++ {
		rows = bench.RunAblation(all, variants, time.Second, 2_000_000)
	}
	b.StopTimer()
	for _, r := range rows {
		b.ReportMetric(float64(r.Solved), fmt.Sprintf("solved[%s]", r.Name))
		b.ReportMetric(r.TotalSeconds, fmt.Sprintf("sec[%s]", r.Name))
	}
}

// BenchmarkPEC_EndToEnd runs HQS end-to-end over the three PEC families,
// reporting solved counts and the sweep oracle load.
func BenchmarkPEC_EndToEnd(b *testing.B) {
	var all []bench.Instance
	for _, f := range []bench.Family{bench.FamilyAdder, bench.FamilyBitcell, bench.FamilyPecXor} {
		all = append(all, familyInstances(b, f)...)
	}
	opt := runOptions()
	b.ResetTimer()
	var solved, satCalls int
	for i := 0; i < b.N; i++ {
		solved, satCalls = 0, 0
		for _, inst := range all {
			rr := bench.RunHQS(inst, opt)
			if rr.Outcome == bench.OutcomeSolved {
				solved++
			}
			satCalls += rr.SweepSatCalls
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(solved), "solved")
	b.ReportMetric(float64(satCalls), "sweep-sat-calls")
}

func BenchmarkAblation_ElimSetGreedy(b *testing.B) { benchAblation(b, "elimset=greedy") }
func BenchmarkAblation_ElimSetAll(b *testing.B)    { benchAblation(b, "elimset=all") }
func BenchmarkAblation_Order(b *testing.B)         { benchAblation(b, "order=reverse") }
func BenchmarkAblation_UnitPure(b *testing.B)      { benchAblation(b, "unitpure=off") }
func BenchmarkAblation_Sweep(b *testing.B)         { benchAblation(b, "sweep=off") }
func BenchmarkAblation_Preprocess(b *testing.B)    { benchAblation(b, "preprocess=off") }
