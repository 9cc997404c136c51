package core_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/core"
	"repro/internal/problem"
)

// TestWorkersReachBothSweepPools checks that Options.Workers sizes the sweep
// worker pools of both the HQS main loop and the linear phase, although
// neither SweepOptions asks for workers: the largest pool is 1 without it
// and 2 with Workers: 2.
func TestWorkersReachBothSweepPools(t *testing.T) {
	insts, err := bench.Generate(bench.FamilyAdder, bench.GenOptions{Count: 4, Seed: 20150309, MaxWidth: 3})
	if err != nil {
		t.Fatal(err)
	}
	for _, workers := range []int{0, 2} {
		opt := core.DefaultOptions()
		opt.Workers = workers
		opt.SweepThreshold = 1
		opt.QBF.SweepThreshold = 1
		var main, back int
		for _, inst := range insts {
			res := core.New(opt).Solve(problem.FromDQBF(inst.Formula))
			if res.Status != core.Solved {
				t.Fatalf("%s: status %v", inst.Name, res.Status)
			}
			main = max(main, res.Stats.Sweep.Workers)
			back = max(back, res.Stats.QBF.Sweep.Workers)
		}
		want := max(workers, 1)
		if main != want || back != want {
			t.Fatalf("Workers: %d: sweep pools of %d (main loop) and %d (linear phase) workers, want %d",
				workers, main, back, want)
		}
	}
}
