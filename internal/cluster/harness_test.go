package cluster

// The cluster-level differential harness: real hqsd workers (httptest
// servers over real Schedulers behind the real HTTP layer) under a real
// Coordinator, with the serial core solver as the oracle. Every cluster
// verdict must equal the serial verdict, and every SAT answered with a
// certificate must carry one the independent checker accepts against the
// ORIGINAL formula — including certificates stitched together from cube
// fans that crossed worker boundaries.

import (
	"context"
	"math/rand"
	"net/http/httptest"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/httpapi"
	"repro/internal/leakcheck"
	"repro/internal/problem"
	"repro/internal/service"
	"repro/internal/trace"
)

// testWorker is one in-process hqsd.
type testWorker struct {
	sched *service.Scheduler
	srv   *httptest.Server
}

// defaultWorkerConfig disables the result cache so differential runs
// exercise the solvers, not the cache (idempotency still dedupes resubmits).
func defaultWorkerConfig() service.Config {
	return service.Config{Workers: 2, QueueCap: 64, CacheSize: -1}
}

// startWorkers boots n in-process hqsd workers and registers teardown:
// listeners close first (no new forwards), then the schedulers drain, then
// leakcheck verifies nothing is left running.
func startWorkers(t *testing.T, n int, cfg service.Config) []testWorker {
	t.Helper()
	leakcheck.Check(t)
	ws := make([]testWorker, n)
	for i := range ws {
		sched := service.NewScheduler(cfg)
		ws[i] = testWorker{sched: sched, srv: httptest.NewServer(httpapi.New(sched).Handler())}
	}
	t.Cleanup(func() {
		for _, w := range ws {
			w.srv.Close()
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			if err := w.sched.Drain(ctx); err != nil {
				t.Errorf("drain: %v", err)
			}
			cancel()
		}
	})
	return ws
}

func workerURLs(ws []testWorker) []string {
	urls := make([]string, len(ws))
	for i, w := range ws {
		urls[i] = w.srv.URL
	}
	return urls
}

func newCoordinator(t *testing.T, ws []testWorker, mod func(*Config)) *Coordinator {
	t.Helper()
	cfg := Config{Workers: workerURLs(ws)}
	if mod != nil {
		mod(&cfg)
	}
	c, err := New(cfg)
	if err != nil {
		t.Fatalf("New: %v", err)
	}
	return c
}

// wideDeps widens every existential's dependency set to the full universal
// prefix so the instance has cube-eligible variables (widening only adds
// Skolem freedom, the formula stays well-formed).
func wideDeps(f *dqbf.Formula) *dqbf.Formula {
	g := f.Clone()
	for _, y := range g.Exist {
		g.Deps[y] = dqbf.NewVarSet(g.Univ...)
	}
	return g
}

// paperExample1Wide is the paper's Example 1 with widened dependencies:
// ∀x1∀x2 ∃y1(x1,x2) ∃y2(x1,x2). (y1↔x1)∧(y2↔x2) — SAT, 2 eligible cube vars.
func paperExample1Wide() *dqbf.Formula {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddExistential(3, 1, 2)
	f.AddExistential(4, 1, 2)
	f.Matrix.AddDimacsClause(-3, 1)
	f.Matrix.AddDimacsClause(3, -1)
	f.Matrix.AddDimacsClause(-4, 2)
	f.Matrix.AddDimacsClause(4, -2)
	return f
}

// serialVerdict is the oracle: the serial HQS core on the same formula.
func serialVerdict(t *testing.T, f *dqbf.Formula) service.Verdict {
	t.Helper()
	res := core.New(core.DefaultOptions()).Solve(problem.FromDQBF(f))
	if res.Status != core.Solved {
		t.Fatalf("serial solve did not finish: %v", res.Status)
	}
	if res.Sat {
		return service.VerdictSat
	}
	return service.VerdictUnsat
}

// clusterSolve runs one instance through the coordinator and returns the
// verdict, failing the test on transport-level errors.
func clusterSolve(t *testing.T, c *Coordinator, f *dqbf.Formula, eng service.Engine, wantCert bool) *Result {
	t.Helper()
	res, err := c.Solve(context.Background(), problem.FromDQBF(f), eng,
		service.Limits{Timeout: 30 * time.Second}, wantCert)
	if err != nil {
		t.Fatalf("cluster solve: %v", err)
	}
	if res.Info.Outcome == nil {
		t.Fatal("cluster solve returned no outcome")
	}
	return res
}

// TestClusterDifferentialRandom is the tentpole harness: 60 random DQBF
// instances (half with widened, cube-eligible dependency sets) through a
// 3-worker cluster with cube-and-conquer enabled, each checked against the
// serial core verdict; every SAT must carry a checker-accepted certificate,
// merged certificates included. It runs once on the iDQ engine, whose
// certificates are always checked, and once on HQS with certification on
// every worker — the path of the benchmark's cluster-cube workload.
func TestClusterDifferentialRandom(t *testing.T) {
	for _, eng := range []service.Engine{service.EngineIDQ, service.EngineHQS} {
		t.Run(string(eng), func(t *testing.T) {
			cfg := defaultWorkerConfig()
			cfg.Certify = true
			ws := startWorkers(t, 3, cfg)
			c := newCoordinator(t, ws, func(cfg *Config) { cfg.CubeVars = 2 })
			differentialRandom(t, c, eng)
		})
	}
}

func differentialRandom(t *testing.T, c *Coordinator, eng service.Engine) {
	rng := rand.New(rand.NewSource(42))
	shapes := [][3]int{{2, 3, 4}, {2, 4, 4}, {3, 3, 6}}
	sat, unsat := 0, 0
	for i := 0; i < 60; i++ {
		sh := shapes[i%len(shapes)]
		f := dqbf.RandomFormula(rng, sh[0], sh[1], sh[2])
		if i%2 == 0 {
			f = wideDeps(f)
		}
		want := serialVerdict(t, f)
		res := clusterSolve(t, c, f, eng, true)
		if got := res.Info.Outcome.Verdict; got != want {
			t.Fatalf("instance %d: cluster says %s, serial says %s", i, got, want)
		}
		if want == service.VerdictSat {
			sat++
			if res.Cert == nil {
				t.Fatalf("instance %d: SAT without a certificate", i)
			}
			if err := cert.Check(f, res.Cert); err != nil {
				t.Fatalf("instance %d: certificate rejected: %v", i, err)
			}
		} else {
			unsat++
		}
	}
	if sat == 0 || unsat == 0 {
		t.Fatalf("degenerate instance mix: %d SAT, %d UNSAT", sat, unsat)
	}
	cs := c.coordStats()
	if cs.CubeSplits == 0 {
		t.Fatal("no instance exercised the cube fan")
	}
	if cs.Forwards == 0 {
		t.Fatal("no forwards recorded")
	}
	t.Logf("%s, 60 instances: %d SAT, %d UNSAT; %d cube fans, %d forwards, %d short circuits",
		eng, sat, unsat, cs.CubeSplits, cs.Forwards, cs.CubeUnsatShortCircuits)
}

// TestClusterDifferentialFamilies runs the structured benchmark families
// through the cluster path against the serial core.
func TestClusterDifferentialFamilies(t *testing.T) {
	ws := startWorkers(t, 3, defaultWorkerConfig())
	c := newCoordinator(t, ws, func(cfg *Config) { cfg.CubeVars = 2 })

	for _, fam := range []bench.Family{bench.FamilyAdder, bench.FamilyBitcell, bench.FamilyCircuit} {
		insts, err := bench.Generate(fam, bench.GenOptions{Count: 2, Seed: 9, MaxWidth: 3})
		if err != nil {
			t.Fatalf("%s: generate: %v", fam, err)
		}
		for _, inst := range insts {
			want := serialVerdict(t, inst.Formula)
			res := clusterSolve(t, c, inst.Formula, service.EnginePortfolio, false)
			if got := res.Info.Outcome.Verdict; got != want {
				t.Fatalf("%s: cluster says %s, serial says %s", inst.Name, got, want)
			}
		}
	}
}

// TestClusterStatsMerge pins the merged /stats shape: per-worker counters
// sum into the totals, and the coordinator's own counters ride along.
func TestClusterStatsMerge(t *testing.T) {
	ws := startWorkers(t, 3, defaultWorkerConfig())
	c := newCoordinator(t, ws, nil)

	rng := rand.New(rand.NewSource(5))
	for i := 0; i < 6; i++ {
		f := dqbf.RandomFormula(rng, 2, 3, 4)
		clusterSolve(t, c, f, service.EngineIDQ, false)
	}

	st := c.Stats(context.Background())
	if len(st.Workers) != 3 {
		t.Fatalf("stats cover %d workers, want 3", len(st.Workers))
	}
	var submitted, completed int64
	for _, w := range st.Workers {
		if !w.Ready || w.Stats == nil {
			t.Fatalf("worker %s not ready in stats: %+v", w.URL, w)
		}
		submitted += w.Stats.Submitted
		completed += w.Stats.Completed
	}
	if submitted != 6 || completed != 6 {
		t.Fatalf("workers saw %d submitted / %d completed, want 6/6", submitted, completed)
	}
	if st.Totals.Submitted != submitted || st.Totals.Completed != completed {
		t.Fatalf("totals %d/%d do not match the per-worker sum %d/%d",
			st.Totals.Submitted, st.Totals.Completed, submitted, completed)
	}
	if st.Coordinator.Forwards < 6 {
		t.Fatalf("coordinator recorded %d forwards, want >= 6", st.Coordinator.Forwards)
	}
}

// TestClusterCubeEdgeCases drives the splitting edge cases end to end:
// an oversized -cube-vars clamps to the eligible set, and a formula with no
// universals degrades to plain forwarding.
func TestClusterCubeEdgeCases(t *testing.T) {
	ws := startWorkers(t, 2, defaultWorkerConfig())
	c := newCoordinator(t, ws, func(cfg *Config) { cfg.CubeVars = 99 })

	// k = 99 on a 2-universal formula: fan of exactly 4 cubes.
	res := clusterSolve(t, c, paperExample1Wide(), service.EngineIDQ, true)
	if res.Info.Outcome.Verdict != service.VerdictSat {
		t.Fatalf("verdict %s, want SAT", res.Info.Outcome.Verdict)
	}
	if res.CubeVars != 2 || res.Cubes != 4 {
		t.Fatalf("oversized k split into %d vars / %d cubes, want 2/4", res.CubeVars, res.Cubes)
	}
	if res.Cert == nil {
		t.Fatal("merged fan returned no certificate")
	}
	if err := cert.Check(paperExample1Wide(), res.Cert); err != nil {
		t.Fatalf("merged certificate rejected: %v", err)
	}

	// Zero universals: nothing to cube, plain forward.
	g := dqbf.New()
	g.AddExistential(1)
	g.Matrix.AddDimacsClause(1)
	res = clusterSolve(t, c, g, service.EngineIDQ, false)
	if res.Info.Outcome.Verdict != service.VerdictSat {
		t.Fatalf("verdict %s, want SAT", res.Info.Outcome.Verdict)
	}
	if res.Cubes != 0 {
		t.Fatalf("zero-universal formula fanned into %d cubes", res.Cubes)
	}
	if got := c.coordStats().CubeSplits; got != 1 {
		t.Fatalf("%d cube splits recorded, want 1 (the degrade case must forward)", got)
	}
}

// TestClusterCubeTraceEvents asserts the coordinator surfaces the
// cube.split/cube.merge pipeline events through its trace sink (the exact
// golden JSON is pinned in the cube package).
func TestClusterCubeTraceEvents(t *testing.T) {
	ws := startWorkers(t, 2, defaultWorkerConfig())
	rec := trace.NewRecorder(16)
	c := newCoordinator(t, ws, func(cfg *Config) {
		cfg.CubeVars = 1
		cfg.Trace = rec
	})

	res := clusterSolve(t, c, paperExample1Wide(), service.EngineIDQ, true)
	if res.Info.Outcome.Verdict != service.VerdictSat {
		t.Fatalf("verdict %s, want SAT", res.Info.Outcome.Verdict)
	}
	events := rec.Events()
	if len(events) != 2 {
		t.Fatalf("got %d trace events, want split+merge", len(events))
	}
	if events[0].Stage != "cluster" || events[0].Pass != "cube.split" {
		t.Fatalf("event 0 = %s/%s, want cluster/cube.split", events[0].Stage, events[0].Pass)
	}
	if events[1].Stage != "cluster" || events[1].Pass != "cube.merge" {
		t.Fatalf("event 1 = %s/%s, want cluster/cube.merge", events[1].Stage, events[1].Pass)
	}
	if events[0].Counters["cubes"] != 2 || events[1].Counters["functions"] != 2 {
		t.Fatalf("unexpected counters: split=%v merge=%v", events[0].Counters, events[1].Counters)
	}
}
