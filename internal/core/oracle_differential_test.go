package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/expand"
	"repro/internal/problem"
	"repro/internal/trace"
)

// diffSolve decides f with the default persistent-oracle pipeline and fails
// on a verdict that disagrees with full universal expansion, which grounds
// the formula into one fresh SAT call and shares no code with the oracle
// path. It returns the pipeline's result.
func diffSolve(t *testing.T, name string, f *dqbf.Formula) core.Result {
	t.Helper()
	ref, err := expand.New(expand.Options{}).Solve(f)
	if err != nil {
		t.Fatalf("%s: expansion reference: %v", name, err)
	}
	res := core.New(core.DefaultOptions()).Solve(problem.FromDQBF(f))
	if res.Status != core.Solved {
		t.Fatalf("%s: status %v, want solved", name, res.Status)
	}
	if res.Sat != ref.Sat {
		t.Fatalf("%s: the oracle pipeline says sat=%v, expansion says sat=%v", name, res.Sat, ref.Sat)
	}
	return res
}

// TestOracleDifferentialRandom holds the incremental-oracle pipeline to full
// expansion over the pinned random corpus: identical verdicts on every
// instance, or the persistent solver state leaked between queries.
func TestOracleDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for i := 0; i < 120; i++ {
		f := dqbf.RandomFormula(rng, 2+rng.Intn(3), 2+rng.Intn(3), 4+rng.Intn(8))
		diffSolve(t, fmt.Sprintf("random[%d]", i), f)
	}
}

// TestOracleDifferentialFamilies repeats the check on the structured PEC
// families (adder, bitcell): deep AIGs with real sweeping and elimination
// activity, where the persistent oracles answer many related queries.
func TestOracleDifferentialFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("family differential is seconds-long; skipped in -short")
	}
	gen := bench.GenOptions{Count: 4, Seed: 20150309, MaxWidth: 3}
	for _, fam := range []bench.Family{bench.FamilyAdder, bench.FamilyBitcell} {
		insts, err := bench.Generate(fam, gen)
		if err != nil {
			t.Fatal(err)
		}
		sawOracleQueries := false
		for _, inst := range insts {
			if diffSolve(t, inst.Name, inst.Formula).Stats.Oracle.Queries > 0 {
				sawOracleQueries = true
			}
		}
		if !sawOracleQueries {
			t.Fatalf("family %s never exercised the persistent oracle", fam)
		}
	}
}

// TestOracleStatsCountRetiredSweepOracles checks that Stats.Oracle keeps the
// counters of sweep oracles after each sweep retires them: every sweep SAT
// call is an oracle query, and every sweep that reached SAT built one
// oracle, besides at most the main oracle and the MaxSAT backend.
func TestOracleStatsCountRetiredSweepOracles(t *testing.T) {
	insts, err := bench.Generate(bench.FamilyAdder, bench.GenOptions{Count: 3, Seed: 20150309, MaxWidth: 6})
	if err != nil {
		t.Fatal(err)
	}
	inst := insts[len(insts)-1] // width 6
	rec := trace.NewRecorder(0)
	opt := core.DefaultOptions()
	opt.Trace = rec
	res := core.New(opt).Solve(problem.FromDQBF(inst.Formula))
	if res.Status != core.Solved {
		t.Fatalf("%s: status %v", inst.Name, res.Status)
	}
	sweepOracles := int64(0)
	for _, ev := range rec.Events() {
		if ev.Pass == "sweep" && ev.Counters["satcalls"] > 0 {
			sweepOracles++
		}
	}
	if sweepOracles < 2 {
		t.Fatalf("%s: %d sweeps reached SAT; the check needs at least 2", inst.Name, sweepOracles)
	}
	st := res.Stats
	if calls := int64(st.Sweep.SatCalls + st.QBF.Sweep.SatCalls); st.Oracle.Queries < calls {
		t.Fatalf("%s: %d oracle queries, fewer than the sweeps' %d SAT calls", inst.Name, st.Oracle.Queries, calls)
	}
	if r := st.Oracle.Rebuilds; r < sweepOracles || r > sweepOracles+2 {
		t.Fatalf("%s: %d oracle rebuilds; want %d sweep oracles plus at most the main oracle and the MaxSAT backend", inst.Name, r, sweepOracles)
	}
}
