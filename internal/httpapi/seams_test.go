package httpapi

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/faults"
	"repro/internal/problem"
	"repro/internal/service"
	"repro/internal/store"
)

var updateSeams = flag.Bool("update", false, "rewrite testdata/seams.golden")

// seamCorpus is the fixed serial workload behind TestFaultSeamPin: per
// engine, the benchmark instances one single-worker scheduler solves.
// Instance generation is seeded and every engine finishes every instance
// well inside the (absent) deadline, so each seam is reached the same number
// of times on every run.
var seamCorpus = []struct {
	engine service.Engine
	family bench.Family
	width  int
}{
	{service.EngineHQS, bench.FamilyAdder, 4},
	{service.EngineHQS, bench.FamilyPecXor, 4},
	{service.EngineIDQ, bench.FamilyZ4, 2},
	{service.EngineExpand, bench.FamilyAdder, 4},
}

// TestFaultSeamPin hands one rule-less fault plan, which fires nothing and
// only counts, to every scheduler and store it builds, and pins how often
// every injection point is reached by a fixed serial corpus that crosses
// every layer: each engine on its own single-worker scheduler with the cache
// off, a store-backed scheduler that writes and then serves (and
// re-verifies) certified entries, a PQE query, and one /solve and one /pqe
// request over HTTP. A change that moves where a seam fires, or which plan
// it reads, changes a count.
//
// Regenerate with: go test ./internal/httpapi -run TestFaultSeamPin -update
func TestFaultSeamPin(t *testing.T) {
	plan := faults.NewPlan(1)
	cfg := service.Config{Workers: 1, CacheSize: -1, Certify: true, Faults: plan}

	gen := func(f bench.Family, width int) []*problem.Problem {
		insts, err := bench.Generate(f, bench.GenOptions{Count: 3, Seed: 20150309, MaxWidth: width})
		if err != nil {
			t.Fatalf("generate %s: %v", f, err)
		}
		var out []*problem.Problem
		for _, in := range insts {
			out = append(out, problem.FromDQBF(in.Formula))
		}
		return out
	}
	solve := func(s *service.Scheduler, eng service.Engine, p *problem.Problem) service.Outcome {
		t.Helper()
		job, err := s.Submit(service.Request{Problem: p, Engine: eng})
		if err != nil {
			t.Fatalf("submit: %v", err)
		}
		<-job.Done()
		out := job.Outcome()
		if out.Verdict != service.VerdictSat && out.Verdict != service.VerdictUnsat {
			t.Fatalf("%s: verdict %v (%s %s)", eng, out.Verdict, out.Reason, out.Error)
		}
		return out
	}
	drain := func(s *service.Scheduler) {
		if err := s.Drain(context.Background()); err != nil {
			t.Fatalf("drain: %v", err)
		}
	}

	// Every engine on its own single-worker scheduler, cache off.
	for _, c := range seamCorpus {
		s := service.NewScheduler(cfg)
		for _, p := range gen(c.family, c.width) {
			solve(s, c.engine, p)
		}
		drain(s)
	}

	// Store-backed: the first pass solves and writes, the second is served
	// from disk with its certificates re-verified.
	st, _, err := store.Open(t.TempDir(), store.Options{Logf: t.Logf, Faults: plan})
	if err != nil {
		t.Fatalf("store: %v", err)
	}
	storeCfg := cfg
	storeCfg.Store = st
	s := service.NewScheduler(storeCfg)
	for pass := 0; pass < 2; pass++ {
		for _, p := range gen(bench.FamilyPecXor, 4) {
			if out := solve(s, service.EngineHQS, p); out.FromStore != (pass == 1) {
				t.Fatalf("pass %d: FromStore = %v", pass, out.FromStore)
			}
		}
	}
	drain(s)
	st.Close()

	// One /solve and one /pqe over HTTP.
	_, ts := newTestServer(t, cfg)
	if code, raw := postBody(t, ts.URL+"/solve?engine=hqs", "text/plain", []byte(example1)); code != http.StatusOK {
		t.Fatalf("/solve: status %d: %s", code, raw)
	}
	if code, raw := postBody(t, ts.URL+"/pqe", "application/x-pqe", []byte(pqeQuery)); code != http.StatusOK {
		t.Fatalf("/pqe: status %d: %s", code, raw)
	}

	snap := plan.Snapshot()
	var pts []string
	for pt := range snap {
		pts = append(pts, string(pt))
	}
	sort.Strings(pts)
	var b strings.Builder
	for _, pt := range pts {
		fmt.Fprintf(&b, "%s %d\n", pt, snap[faults.Point(pt)].Hits)
	}
	got := b.String()

	golden := filepath.Join("testdata", "seams.golden")
	if *updateSeams {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(golden, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatalf("read %s: %v (regenerate with -update)", golden, err)
	}
	if got != string(want) {
		t.Fatalf("seam hit counts changed:\ngot:\n%swant:\n%s", got, want)
	}
}
