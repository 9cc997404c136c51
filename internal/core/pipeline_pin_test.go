package core_test

import (
	"bytes"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"maps"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/budget"
	"repro/internal/cert"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/pipeline"
	"repro/internal/problem"
	"repro/internal/trace"
)

// pinNodeCap bounds every solve of the pinned corpus, so no configuration
// runs long; a solve that hits it is pinned as Memout like any verdict.
const pinNodeCap = 20000

// randomQBF builds a random QBF as a DQBF with chained (growing) dependency
// sets, so its prefix is linear and dqbf.BruteForce is its ground truth.
func randomQBF(rng *rand.Rand, nUniv, nExist, nClauses int) *dqbf.Formula {
	f := dqbf.New()
	for i := 1; i <= nUniv; i++ {
		f.AddUniversal(cnf.Var(i))
	}
	cur := dqbf.NewVarSet()
	for i := 0; i < nExist; i++ {
		for _, x := range f.Univ {
			if !cur.Has(x) && rng.Intn(3) == 0 {
				cur.Add(x)
			}
		}
		y := cnf.Var(nUniv + i + 1)
		f.Exist = append(f.Exist, y)
		f.Deps[y] = cur.Clone()
		if int(y) > f.Matrix.NumVars {
			f.Matrix.NumVars = int(y)
		}
	}
	n := nUniv + nExist
	for i := 0; i < nClauses; i++ {
		k := 1 + rng.Intn(3)
		c := make(cnf.Clause, 0, k)
		for j := 0; j < k; j++ {
			c = append(c, cnf.NewLit(cnf.Var(1+rng.Intn(n)), rng.Intn(2) == 0))
		}
		f.Matrix.Clauses = append(f.Matrix.Clauses, c)
	}
	return f
}

type pinInstance struct {
	name string
	p    *problem.Problem
}

// pipelineCorpus is the fixed corpus of TestPipelineTracesPinned: the
// paper's seven PEC families at widths 2–4, seeded random DQBFs, seeded
// random QBFs handed over as QBF-kind problems, and Example 1.
func pipelineCorpus(t *testing.T) []pinInstance {
	t.Helper()
	var out []pinInstance
	for _, width := range []int{2, 3, 4} {
		fams, err := bench.GenerateAll(bench.GenOptions{Count: 3, Seed: 20150309, MaxWidth: width})
		if err != nil {
			t.Fatal(err)
		}
		for _, fam := range bench.Families {
			for _, inst := range fams[fam] {
				out = append(out, pinInstance{fmt.Sprintf("w%d/%s", width, inst.Name), problem.FromDQBF(inst.Formula)})
			}
		}
	}
	rng := rand.New(rand.NewSource(2016))
	for i := 0; i < 100; i++ {
		nu, ne := 1+rng.Intn(4), 1+rng.Intn(6)
		f := dqbf.RandomFormula(rng, nu, ne, 2+rng.Intn(3*(nu+ne)))
		out = append(out, pinInstance{fmt.Sprintf("dqbf/%03d", i), problem.FromDQBF(f)})
	}
	for i := 0; i < 100; i++ {
		nu, ne := 1+rng.Intn(4), 1+rng.Intn(6)
		f := randomQBF(rng, nu, ne, 2+rng.Intn(3*(nu+ne)))
		out = append(out, pinInstance{fmt.Sprintf("qbf/%03d", i), &problem.Problem{Kind: problem.KindQBF, Format: problem.FormatQDIMACS, Formula: f}})
	}
	ex, err := dqbf.ParseDQDIMACS([]byte("p cnf 4 4\na 1 2 0\nd 3 1 0\nd 4 2 0\n-3 1 0\n3 -1 0\n-4 2 0\n4 -2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	return append(out, pinInstance{"example1", problem.FromDQBF(ex)})
}

// pipelineDigest solves p once under opt (serial, certified, node-capped)
// and hashes the status and verdict, the encoded certificate, and every
// trace event except its wall time. The hand-off event (stage "hqs", pass
// "qbf") is hashed without its after-sizes: they describe the prefix the
// linear phase leaves behind, which is not part of the pinned behaviour.
// The result and the events are returned for further checks.
func pipelineDigest(p *problem.Problem, opt core.Options) (string, core.Result, []trace.Event) {
	rec := trace.NewRecorder(1 << 20)
	opt.Trace = rec
	opt.Certify = true
	opt.Budget = budget.New(budget.Limits{Nodes: pinNodeCap})
	res := core.New(opt).Solve(p)
	h := sha256.New()
	fmt.Fprintf(h, "status=%v sat=%v certerr=%v\n", res.Status, res.Sat, res.CertErr)
	if res.Certificate != nil {
		enc, err := cert.Encode(res.Certificate)
		fmt.Fprintf(h, "cert err=%v\n", err)
		h.Write(enc)
	}
	for _, ev := range rec.Events() {
		ev.Wall = 0
		if ev.Stage == "hqs" && ev.Pass == "qbf" {
			ev.UnivAfter, ev.ExistAfter = 0, 0
		}
		line, err := json.Marshal(ev)
		if err != nil {
			panic(err)
		}
		h.Write(line)
		h.Write([]byte("\n"))
	}
	return fmt.Sprintf("%x", h.Sum(nil)), res, rec.Events()
}

// passNames lists the passes of both stages.
var passNames = []string{
	"blockelim", "build", "dropsupport", "elimset", "finalsat",
	"preprocess", "qbf", "sweep", "thm1", "thm2", "unitpure",
}

// checkLedger reports where res.Stats disagrees with the solve's trace: for
// every stage and pass, Stats.Pass must count its events and sum their wall
// times and counters, and DecidedBy must name one of them exactly when the
// solve reached a verdict.
func checkLedger(res core.Result, events []trace.Event) error {
	want := map[string]pipeline.PassTotal{}
	for _, ev := range events {
		k := ev.Stage + "/" + ev.Pass
		t := want[k]
		t.Runs++
		t.Wall += ev.Wall
		t.Counters = t.Counters.Add(pipeline.Counters(ev.Counters))
		want[k] = t
	}
	for _, stage := range []string{"hqs", "qbf"} {
		for _, pass := range passNames {
			got, w := res.Stats.Pass(stage, pass), want[stage+"/"+pass]
			if got.Runs != w.Runs || got.Wall != w.Wall || !maps.Equal(got.Counters, w.Counters) {
				return fmt.Errorf("Stats.Pass(%q, %q) = %+v, events sum to %+v", stage, pass, got, w)
			}
		}
	}
	if _, ok := want[res.Stats.DecidedBy]; ok != (res.Status == core.Solved) {
		return fmt.Errorf("status %v decided by %q, which names no event", res.Status, res.Stats.DecidedBy)
	}
	return nil
}

// TestPipelineTracesPinned pins, for every instance of a fixed corpus under
// every ablation configuration (the first of which is DefaultOptions), the
// complete observable behaviour of a solve: verdict or resource status, the
// Skolem certificate, and the full trace of both stages with every counter
// and size. A refactor of the pipeline's plumbing must leave every digest
// unchanged. Each solve's Stats must also be the fold of its trace.
//
// Regenerate with: go test ./internal/core -run TestPipelineTracesPinned -update
func TestPipelineTracesPinned(t *testing.T) {
	var b bytes.Buffer
	for _, inst := range pipelineCorpus(t) {
		for _, v := range bench.AblationVariants() {
			digest, res, events := pipelineDigest(inst.p, v.Opt)
			fmt.Fprintf(&b, "%s %s %s\n", inst.name, v.Name, digest)
			if err := checkLedger(res, events); err != nil {
				t.Errorf("%s %s: %v", inst.name, v.Name, err)
			}
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "pipeline_traces.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("corpus size changed: %d digests, want %d", len(gl), len(wl))
	}
	var diff []string
	for i := range gl {
		if gl[i] != wl[i] {
			diff = append(diff, gl[i])
		}
	}
	t.Errorf("%d solve digests diverged from %s; first: %v", len(diff), path, diff[:min(5, len(diff))])
}
