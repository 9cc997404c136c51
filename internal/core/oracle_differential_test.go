package core_test

import (
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/oracle"
	"repro/internal/problem"
)

// oracleConfigs are the pipeline configurations the differential suite pits
// against each other: the default persistent-oracle pipeline (serial and with
// a 2-worker sweep pool, so the per-worker oracles run concurrently under
// -race) versus the historical fresh-solver-per-query pipeline.
func oracleConfigs() map[string]core.Options {
	def := core.DefaultOptions()

	workers := core.DefaultOptions()
	workers.Workers = 2

	fresh := core.DefaultOptions()
	fresh.FreshOracle = true
	return map[string]core.Options{
		"oracle":         def,
		"oracle-workers": workers,
		"fresh":          fresh,
	}
}

// diffSolve decides f under every configuration and fails on any verdict
// disagreement; the fresh pipeline is the reference.
func diffSolve(t *testing.T, name string, f *dqbf.Formula) {
	t.Helper()
	type verdict struct {
		status core.Status
		sat    bool
		oracle oracle.Stats
	}
	got := make(map[string]verdict)
	for cfg, opt := range oracleConfigs() {
		res := core.New(opt).Solve(problem.FromDQBF(f))
		if res.Status != core.Solved {
			t.Fatalf("%s [%s]: status %v, want solved", name, cfg, res.Status)
		}
		got[cfg] = verdict{res.Status, res.Sat, res.Stats.Oracle}
	}
	ref := got["fresh"]
	for cfg, v := range got {
		if v.sat != ref.sat {
			t.Fatalf("%s: %s says sat=%v, fresh says sat=%v", name, cfg, v.sat, ref.sat)
		}
	}
	if got["fresh"].oracle.Queries != 0 {
		t.Fatalf("%s: FreshOracle pipeline reported %d oracle queries", name, got["fresh"].oracle.Queries)
	}
}

// TestOracleDifferentialRandom runs the incremental-oracle pipelines against
// the fresh-solver pipeline over the pinned random corpus: identical verdicts
// on every instance, or the persistent solver state leaked between queries.
func TestOracleDifferentialRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(777))
	for i := 0; i < 120; i++ {
		f := dqbf.RandomFormula(rng, 2+rng.Intn(3), 2+rng.Intn(3), 4+rng.Intn(8))
		diffSolve(t, fmt.Sprintf("random[%d]", i), f)
	}
}

// TestOracleDifferentialFamilies repeats the check on the structured PEC
// families (adder, bitcell): deep AIGs with real sweeping and elimination
// activity, where the oracle path actually diverges from the fresh path.
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
			opt := core.DefaultOptions()
			res := core.New(opt).Solve(problem.FromDQBF(inst.Formula))
			if res.Status == core.Solved && res.Stats.Oracle.Queries > 0 {
				sawOracleQueries = true
			}
			diffSolve(t, inst.Name, inst.Formula)
		}
		if !sawOracleQueries {
			t.Fatalf("family %s never exercised the persistent oracle", fam)
		}
	}
}
