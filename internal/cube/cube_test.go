package cube

import (
	"encoding/json"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/cert"
	"repro/internal/dqbf"
	"repro/internal/idq"
	"repro/internal/trace"
)

// sharedDeps widens every existential's dependency set to the full universal
// prefix, so every universal becomes cube-eligible. The instance stays a
// well-formed DQBF (widening dependency sets only adds Skolem freedom).
func sharedDeps(f *dqbf.Formula) *dqbf.Formula {
	g := f.Clone()
	for _, y := range g.Exist {
		g.Deps[y] = dqbf.NewVarSet(g.Univ...)
	}
	return g
}

// example1 is ∀x1∀x2 ∃y1(x1,x2) ∃y2(x1,x2) with matrix (y1↔x1)∧(y2↔x2):
// the paper's Example 1 with widened (hence cube-eligible) dependencies.
func example1() *dqbf.Formula {
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

func TestEligibleIsSharedDependencyIntersection(t *testing.T) {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddUniversal(3)
	f.AddExistential(4, 1, 2)
	f.AddExistential(5, 2, 3)
	got := Eligible(f)
	if len(got) != 1 || got[0] != 2 {
		t.Fatalf("Eligible = %v, want [2]", got)
	}

	// No existentials: every universal is eligible (empty intersection).
	g := dqbf.New()
	g.AddUniversal(1)
	g.AddUniversal(2)
	g.Matrix.AddDimacsClause(1, 2)
	if got := Eligible(g); len(got) != 2 {
		t.Fatalf("Eligible without existentials = %v, want both universals", got)
	}
}

func TestSplitEdgeCases(t *testing.T) {
	// k larger than the universal prefix clamps to the eligible set.
	f := example1()
	plan := Split(f, 99, nil)
	if len(plan.Vars) != 2 || len(plan.Cubes) != 4 {
		t.Fatalf("oversized k: got %d vars, %d cubes", len(plan.Vars), len(plan.Cubes))
	}
	for _, c := range plan.Cubes {
		if len(c.Formula.Univ) != 0 {
			t.Fatalf("cube %d kept universals: %v", c.Index, c.Formula.Univ)
		}
		if d := c.Formula.Deps[3]; !d.Empty() {
			t.Fatalf("cube %d kept dependencies: %v", c.Index, d)
		}
	}

	// Zero universals: empty plan, coordinator forwards as-is.
	g := dqbf.New()
	g.AddExistential(1)
	g.Matrix.AddDimacsClause(1)
	if p := Split(g, 2, nil); !p.Empty() {
		t.Fatalf("zero-universal formula split into %d cubes", len(p.Cubes))
	}

	// k <= 0: empty plan.
	if p := Split(f, 0, nil); !p.Empty() {
		t.Fatal("k=0 split produced cubes")
	}

	// No shared universal: empty plan even though universals exist.
	h := dqbf.New()
	h.AddUniversal(1)
	h.AddUniversal(2)
	h.AddExistential(3, 1)
	h.AddExistential(4, 2)
	h.Matrix.AddDimacsClause(3, 4)
	if p := Split(h, 1, nil); !p.Empty() {
		t.Fatal("split cubed a non-shared universal")
	}
}

// TestSplitAgreesWithBruteForce is the semantic core: for random instances
// with cube-eligible variables, the conjunction of the cube verdicts must
// equal the original verdict (all-SAT ⇔ SAT, any-UNSAT ⇔ UNSAT).
func TestSplitAgreesWithBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 40; i++ {
		f := sharedDeps(dqbf.RandomFormula(rng, 2, 3, 5))
		want, err := dqbf.BruteForce(f)
		if err != nil {
			t.Fatalf("instance %d: brute force: %v", i, err)
		}
		for k := 1; k <= 2; k++ {
			plan := Split(f, k, nil)
			if plan.Empty() {
				t.Fatalf("instance %d: no split at k=%d", i, k)
			}
			all := true
			for _, c := range plan.Cubes {
				sat, err := dqbf.BruteForce(c.Formula)
				if err != nil {
					t.Fatalf("instance %d cube %d: brute force: %v", i, c.Index, err)
				}
				all = all && sat
			}
			if all != want {
				t.Fatalf("instance %d k=%d: cubes say %v, serial says %v", i, k, all, want)
			}
		}
	}
}

// TestMergeCertsCheckerAccepted runs the full SAT path: solve every cube
// with the certificate-producing iDQ engine, lift and merge the per-cube
// certificates, and demand the independent checker accept the merged
// certificate against the ORIGINAL formula.
func TestMergeCertsCheckerAccepted(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	merged := 0
	for i := 0; i < 200 && merged < 12; i++ {
		f := sharedDeps(dqbf.RandomFormula(rng, 2, 3, 4))
		plan := Split(f, 1+i%2, nil)
		if plan.Empty() {
			continue
		}
		certs := make([]*cert.Certificate, len(plan.Cubes))
		allSat := true
		for c, cb := range plan.Cubes {
			res := idq.New(idq.Options{}).Solve(cb.Formula)
			if res.Status != idq.Solved {
				t.Fatalf("instance %d cube %d: %v", i, c, res.Status)
			}
			if !res.Sat {
				allSat = false
				break
			}
			if err := cert.Check(cb.Formula, res.Certificate); err != nil {
				t.Fatalf("instance %d cube %d: cube certificate rejected: %v", i, c, err)
			}
			certs[c] = res.Certificate
		}
		if !allSat {
			continue
		}
		mc, err := MergeCerts(f, plan, certs, nil)
		if err != nil {
			t.Fatalf("instance %d: MergeCerts: %v", i, err)
		}
		if err := cert.Check(f, mc); err != nil {
			t.Fatalf("instance %d: merged certificate rejected: %v", i, err)
		}
		merged++
	}
	if merged == 0 {
		t.Fatal("no all-SAT split exercised the merge path")
	}
}

// TestMergeCertsErrors pins the failure modes.
func TestMergeCertsErrors(t *testing.T) {
	f := example1()
	if _, err := MergeCerts(f, &Plan{}, nil, nil); err == nil {
		t.Fatal("empty plan merged")
	}
	plan := Split(f, 1, nil)
	if _, err := MergeCerts(f, plan, make([]*cert.Certificate, 1), nil); err == nil {
		t.Fatal("certificate/cube count mismatch merged")
	}
}

// TestGoldenTraceSplitMerge pins the cube.split/cube.merge pipeline events:
// stages, passes, prefix deltas, and counters are part of the wire-visible
// observability contract, so a drift here must be deliberate.
func TestGoldenTraceSplitMerge(t *testing.T) {
	f := example1()
	rec := trace.NewRecorder(16)
	plan := Split(f, 1, rec)
	certs := make([]*cert.Certificate, len(plan.Cubes))
	for c, cb := range plan.Cubes {
		res := idq.New(idq.Options{}).Solve(cb.Formula)
		if res.Status != idq.Solved || !res.Sat {
			t.Fatalf("cube %d: unexpected verdict %v sat=%v", c, res.Status, res.Sat)
		}
		certs[c] = res.Certificate
	}
	mc, err := MergeCerts(f, plan, certs, rec)
	if err != nil {
		t.Fatalf("MergeCerts: %v", err)
	}
	if err := cert.Check(f, mc); err != nil {
		t.Fatalf("merged certificate rejected: %v", err)
	}

	events, dropped := rec.Events(), rec.Dropped()
	if dropped != 0 {
		t.Fatalf("dropped %d trace events", dropped)
	}
	// The merge node count depends only on this fixed pipeline, so the
	// golden trace pins it too; scrub nothing.
	var got []string
	for _, ev := range events {
		b, err := json.Marshal(ev)
		if err != nil {
			t.Fatal(err)
		}
		got = append(got, string(b))
	}
	want := []string{
		`{"seq":1,"stage":"cluster","pass":"cube.split","wall_ns":0,"nodes_before":0,"nodes_after":0,"univ_before":2,"univ_after":1,"exist_before":2,"exist_after":2,"changed":true,"counters":{"cube_vars":1,"cubes":2,"eligible":2}}`,
		`{"seq":2,"stage":"cluster","pass":"cube.merge","wall_ns":0,"nodes_before":0,"nodes_after":` + nodeCount(mc) + `,"univ_before":1,"univ_after":2,"exist_before":2,"exist_after":2,"changed":true,"counters":{"cube_vars":1,"cubes":2,"functions":2}}`,
	}
	if len(got) != len(want) {
		t.Fatalf("got %d events, want %d:\n%s", len(got), len(want), strings.Join(got, "\n"))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("event %d:\n got %s\nwant %s", i, got[i], want[i])
		}
	}
}

func nodeCount(c *cert.Certificate) string {
	b, _ := json.Marshal(c.G.NumNodes())
	return string(b)
}
