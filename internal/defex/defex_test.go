package defex_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/aig"
	"repro/internal/bench"
	"repro/internal/budget"
	"repro/internal/cert"
	"repro/internal/cnf"
	"repro/internal/defex"
	"repro/internal/dqbf"
)

// solve decides f with the given options, failing the test on a non-verdict.
func solve(t *testing.T, f *dqbf.Formula, opt defex.Options) defex.Result {
	t.Helper()
	res := defex.New(opt).Solve(f)
	if res.Status != defex.Solved {
		t.Fatalf("status %v, want solved", res.Status)
	}
	return res
}

// configs are the engine configurations every differential test sweeps.
func configs() map[string]defex.Options {
	return map[string]defex.Options{
		"default":   {},
		"cert":      {Certify: true},
		"one-round": {MaxRounds: 1, Certify: true},
	}
}

// TestDefexVsBruteForce cross-checks every configuration against the
// Skolem-table enumeration ground truth on random formulas, and validates
// every certificate a certified SAT verdict produces with the independent
// checker.
func TestDefexVsBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 150; i++ {
		f := dqbf.RandomFormula(rng, 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(12))
		want, err := dqbf.BruteForce(f)
		if err != nil {
			continue // Skolem table too large for ground truth
		}
		for name, opt := range configs() {
			res := solve(t, f, opt)
			if res.Sat != want {
				t.Fatalf("instance %d config %s: verdict %v, want %v\n%s\nclauses %v",
					i, name, res.Sat, want, f, f.Matrix.Clauses)
			}
			if opt.Certify && res.Sat {
				if res.CertErr != nil {
					t.Fatalf("instance %d config %s: certificate extraction: %v", i, name, res.CertErr)
				}
				if err := cert.Check(f, res.Certificate); err != nil {
					t.Fatalf("instance %d config %s: certificate rejected: %v\n%s\nclauses %v",
						i, name, err, f, f.Matrix.Clauses)
				}
			}
		}
	}
}

// TestDefexAdderFamily is the acceptance check: the PEC adder family (largely
// definable black boxes) must be decided by definition extraction with
// certificates the independent checker accepts, and realizable instances
// should be settled without falling back to expansion of many universals.
func TestDefexAdderFamily(t *testing.T) {
	opt := bench.DefaultGenOptions()
	opt.Count = 8
	insts, err := bench.Generate(bench.FamilyAdder, opt)
	if err != nil {
		t.Fatal(err)
	}
	defined := 0
	for _, inst := range insts {
		res := solve(t, inst.Formula, defex.Options{Certify: true})
		if res.Sat {
			if res.CertErr != nil {
				t.Fatalf("%s: certificate extraction: %v", inst.Name, res.CertErr)
			}
			if err := cert.Check(inst.Formula, res.Certificate); err != nil {
				t.Fatalf("%s: certificate rejected: %v", inst.Name, err)
			}
		}
		defined += res.Stats.Defined + res.Stats.DefinedConst
	}
	if defined == 0 {
		t.Fatal("no adder existential was ever found defined; definability checks are not working")
	}
}

// TestDefexCertCorrupted flips one extracted Skolem function; the checker
// must reject the corrupted certificate (on instances whose verdict actually
// depends on that function).
func TestDefexCertCorrupted(t *testing.T) {
	rng := rand.New(rand.NewSource(8))
	rejected := 0
	for i := 0; i < 120 && rejected < 10; i++ {
		f := dqbf.RandomFormula(rng, 1+rng.Intn(3), 1+rng.Intn(3), 2+rng.Intn(10))
		res := defex.New(defex.Options{Certify: true}).Solve(f)
		if res.Status != defex.Solved || !res.Sat || res.CertErr != nil {
			continue
		}
		if err := cert.Check(f, res.Certificate); err != nil {
			t.Fatalf("instance %d: valid certificate rejected: %v", i, err)
		}
		for _, y := range f.Exist {
			bad := &cert.Certificate{G: res.Certificate.G, Funcs: make(map[cnf.Var]aig.Ref)}
			for k, v := range res.Certificate.Funcs {
				bad.Funcs[k] = v
			}
			bad.Funcs[y] = bad.Funcs[y].Not()
			if err := cert.Check(f, bad); err != nil {
				rejected++
			}
		}
	}
	if rejected == 0 {
		t.Fatal("no corrupted certificate was ever rejected; the checker is vacuous here")
	}
}

// renameFormula maps every variable v to perm[v], preserving the quantifier
// structure (mirrors the internal/core metamorphic harness).
func renameFormula(f *dqbf.Formula, perm map[cnf.Var]cnf.Var) *dqbf.Formula {
	g := dqbf.New()
	for _, x := range f.Univ {
		g.AddUniversal(perm[x])
	}
	for _, y := range f.Exist {
		var deps []cnf.Var
		for _, x := range f.Deps[y].Vars() {
			deps = append(deps, perm[x])
		}
		g.AddExistential(perm[y], deps...)
	}
	for _, c := range f.Matrix.Clauses {
		nc := make(cnf.Clause, len(c))
		for i, l := range c {
			nc[i] = cnf.NewLit(perm[l.Var()], l.Neg())
		}
		g.Matrix.Clauses = append(g.Matrix.Clauses, nc)
	}
	return g
}

// TestDefexMetamorphicRenaming applies a random variable permutation; the
// defex verdict must not change.
func TestDefexMetamorphicRenaming(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	for i := 0; i < 60; i++ {
		f := dqbf.RandomFormula(rng, 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(12))
		want := solve(t, f, defex.Options{}).Sat

		nv := len(f.Univ) + len(f.Exist)
		vars := make([]cnf.Var, 0, nv)
		for v := cnf.Var(1); v <= cnf.Var(nv); v++ {
			vars = append(vars, v)
		}
		perm := make(map[cnf.Var]cnf.Var, nv)
		for j, k := range rng.Perm(nv) {
			perm[vars[j]] = vars[k]
		}
		got := solve(t, renameFormula(f, perm), defex.Options{}).Sat
		if got != want {
			t.Fatalf("instance %d: renamed verdict %v, original %v (perm %v)\nclauses %v",
				i, got, want, perm, f.Matrix.Clauses)
		}
	}
}

// TestDefexDefinedEndgame pins a fully definable instance: y ↔ x1⊕x2 with
// D_y = {x1, x2}. The realizable variant must be decided by the definability
// endgame without expansion; restricting D_y to {x1} makes y undefinable and
// the formula false.
func TestDefexDefinedEndgame(t *testing.T) {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddExistential(3, 1, 2)
	// y ↔ x1⊕x2.
	f.Matrix.AddClause(cnf.NegLit(3), cnf.PosLit(1), cnf.PosLit(2))
	f.Matrix.AddClause(cnf.NegLit(3), cnf.NegLit(1), cnf.NegLit(2))
	f.Matrix.AddClause(cnf.PosLit(3), cnf.NegLit(1), cnf.PosLit(2))
	f.Matrix.AddClause(cnf.PosLit(3), cnf.PosLit(1), cnf.NegLit(2))

	res := solve(t, f, defex.Options{Certify: true})
	if !res.Sat {
		t.Fatal("xor-definition instance must be SAT")
	}
	if res.Stats.Defined != 1 || res.Stats.ExpandUsed {
		t.Fatalf("want 1 defined existential and no expansion, got %+v", res.Stats)
	}
	if res.Stats.DecidedBy != "defined" {
		t.Fatalf("decided by %q, want \"defined\"", res.Stats.DecidedBy)
	}
	if err := cert.Check(f, res.Certificate); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}

	// With D_y = {x1} the xor is not a function of the dependency set.
	g := f.Clone()
	g.Deps[3] = dqbf.NewVarSet(1)
	res = solve(t, g, defex.Options{})
	if res.Sat {
		t.Fatal("restricted-dependency variant must be UNSAT")
	}
}

// TestDefexBudgetStops drives every stop status through the budget alone: a
// node cap is the AIG's node limit (Memout, the path hqsd's nodes= limit
// takes), an expired deadline is Timeout, and a cancelled budget is
// Cancelled.
func TestDefexBudgetStops(t *testing.T) {
	opt := bench.DefaultGenOptions()
	opt.Count = 1
	insts, err := bench.Generate(bench.FamilyAdder, opt)
	if err != nil {
		t.Fatal(err)
	}
	f := insts[0].Formula
	cancelled := budget.New(budget.Limits{})
	cancelled.Cancel()
	for _, tc := range []struct {
		name string
		bud  *budget.Budget
		want defex.Status
	}{
		{"nodes", budget.New(budget.Limits{Nodes: 16}), defex.Memout},
		{"deadline", budget.New(budget.Limits{Deadline: time.Now().Add(-time.Second)}), defex.Timeout},
		{"cancelled", cancelled, defex.Cancelled},
	} {
		res := defex.New(defex.Options{Budget: tc.bud}).Solve(f)
		if res.Status != tc.want {
			t.Errorf("%s: status %v, want %v", tc.name, res.Status, tc.want)
		}
	}
}
