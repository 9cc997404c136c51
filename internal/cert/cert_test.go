package cert_test

import (
	"math/rand"
	"strings"
	"testing"

	"repro/internal/aig"
	"repro/internal/cert"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/idq"
	"repro/internal/problem"
)

// optionSets are the HQS configurations certificates must survive: the full
// default pipeline (preprocess + gates + unit/pure + sweeping), the bare
// elimination loop, and the greedy/all elimination strategies that change
// which Theorem-1 expansions run.
func optionSets() map[string]core.Options {
	plain := core.Options{Strategy: core.ElimMaxSAT}
	greedy := core.DefaultOptions()
	greedy.Strategy = core.ElimGreedy
	all := core.DefaultOptions()
	all.Strategy = core.ElimAll
	return map[string]core.Options{
		"default": core.DefaultOptions(),
		"plain":   plain,
		"greedy":  greedy,
		"all":     all,
	}
}

// TestExtractCheckRandom is the end-to-end property: on every SAT verdict,
// every option set must extract a certificate the independent checker
// accepts against the untouched input formula.
func TestExtractCheckRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	sets := optionSets()
	sat := 0
	for i := 0; i < 150; i++ {
		f := dqbf.RandomFormula(rng, 1+rng.Intn(4), 1+rng.Intn(4), 1+rng.Intn(14))
		orig := f.Clone()
		for name, opt := range sets {
			opt.Certify = true
			res := core.New(opt).Solve(problem.FromDQBF(f))
			if res.Status != core.Solved {
				t.Fatalf("instance %d (%s): status %v", i, name, res.Status)
			}
			if !res.Sat {
				if res.Certificate != nil {
					t.Fatalf("instance %d (%s): certificate on UNSAT", i, name)
				}
				continue
			}
			sat++
			if res.CertErr != nil {
				t.Fatalf("instance %d (%s): extraction failed: %v", i, name, res.CertErr)
			}
			if err := cert.Check(orig, res.Certificate); err != nil {
				t.Fatalf("instance %d (%s): certificate rejected: %v\n%s",
					i, name, err, cert.Format(orig, res.Certificate))
			}
		}
	}
	if sat == 0 {
		t.Fatal("no SAT instance exercised the extractor")
	}
}

// TestCheckRejectsCorrupted flips one certificate function and expects the
// checker to produce a counterexample naming a universal assignment.
func TestCheckRejectsCorrupted(t *testing.T) {
	// ∀1 ∃2(1): matrix (1 ∨ 2)(¬1 ∨ ¬2) forces f_2 = ¬x1.
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddExistential(2, 1)
	f.Matrix.Clauses = []cnf.Clause{
		{cnf.NewLit(1, false), cnf.NewLit(2, false)},
		{cnf.NewLit(1, true), cnf.NewLit(2, true)},
	}
	opt := core.DefaultOptions()
	opt.Certify = true
	res := core.New(opt).Solve(problem.FromDQBF(f.Clone()))
	if res.Status != core.Solved || !res.Sat || res.CertErr != nil {
		t.Fatalf("solve: status %v sat %v certErr %v", res.Status, res.Sat, res.CertErr)
	}
	if err := cert.Check(f, res.Certificate); err != nil {
		t.Fatalf("valid certificate rejected: %v", err)
	}
	res.Certificate.Funcs[2] = res.Certificate.Funcs[2].Not()
	err := cert.Check(f, res.Certificate)
	if err == nil {
		t.Fatal("corrupted certificate accepted")
	}
	if !strings.Contains(err.Error(), "falsified at universal assignment") {
		t.Fatalf("want a counterexample error, got: %v", err)
	}
}

// TestCheckRejectsSupportViolation gives an existential a function over a
// universal outside its dependency set.
func TestCheckRejectsSupportViolation(t *testing.T) {
	// ∀1 ∃2(∅): matrix (1 ∨ 2)(¬1 ∨ ¬2) is UNSAT precisely because f_2 may
	// not read x1 — a certificate claiming f_2 = ¬x1 must be rejected
	// structurally, before the SAT call can bless it.
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddExistential(2)
	f.Matrix.Clauses = []cnf.Clause{
		{cnf.NewLit(1, false), cnf.NewLit(2, false)},
		{cnf.NewLit(1, true), cnf.NewLit(2, true)},
	}
	g := aig.New()
	c := &cert.Certificate{G: g, Funcs: map[cnf.Var]aig.Ref{2: g.Input(1).Not()}}
	err := cert.Check(f, c)
	if err == nil {
		t.Fatal("out-of-dependency certificate accepted")
	}
	if !strings.Contains(err.Error(), "outside its dependency set") {
		t.Fatalf("want a support-violation error, got: %v", err)
	}
}

// TestCheckRejectsMissingFunction expects a certificate lacking a function
// for some existential to fail before any SAT call.
func TestCheckRejectsMissingFunction(t *testing.T) {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddExistential(2, 1)
	f.Matrix.Clauses = []cnf.Clause{{cnf.NewLit(2, false)}}
	c := &cert.Certificate{G: aig.New(), Funcs: map[cnf.Var]aig.Ref{}}
	err := cert.Check(f, c)
	if err == nil || !strings.Contains(err.Error(), "no Skolem function") {
		t.Fatalf("want a missing-function error, got: %v", err)
	}
}

// depAssign returns the assignment that sets the i-th dependency in deps to
// bit i of bits and every other variable false.
func depAssign(deps []cnf.Var, bits int) func(cnf.Var) bool {
	return func(v cnf.Var) bool {
		for i, d := range deps {
			if d == v {
				return bits&(1<<i) != 0
			}
		}
		return false
	}
}

// randomTruePoints draws a random Skolem truth table for every existential
// of f: each dependency projection is a true point with probability 1/2.
func randomTruePoints(rng *rand.Rand, f *dqbf.Formula) (map[cnf.Var][]string, map[cnf.Var]map[string]bool) {
	points := make(map[cnf.Var][]string)
	isTrue := make(map[cnf.Var]map[string]bool)
	for _, y := range f.Exist {
		deps := f.Deps[y].Vars()
		isTrue[y] = make(map[string]bool)
		for bits := 0; bits < 1<<len(deps); bits++ {
			if rng.Intn(2) == 0 {
				continue
			}
			key := dqbf.ProjectionKey(deps, depAssign(deps, bits))
			points[y] = append(points[y], key)
			isTrue[y][key] = true
		}
	}
	return points, isTrue
}

// TestFromTruePointsMatchesTruePoints lowers random truth tables and
// compares every function pointwise, on every dependency assignment, with
// its true-point set: true exactly on the listed projections.
func TestFromTruePointsMatchesTruePoints(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		f := dqbf.RandomFormula(rng, 1+rng.Intn(3), 1+rng.Intn(3), 1)
		points, isTrue := randomTruePoints(rng, f)
		c := cert.FromTruePoints(f, points)
		for _, y := range f.Exist {
			deps := f.Deps[y].Vars()
			for bits := 0; bits < 1<<len(deps); bits++ {
				assign := depAssign(deps, bits)
				want := isTrue[y][dqbf.ProjectionKey(deps, assign)]
				if got := c.G.Eval(c.Funcs[y], assign); got != want {
					t.Fatalf("instance %d: var %d bits %b: AIG %v, table %v", i, y, bits, got, want)
				}
			}
		}
	}
}

// TestCheckAgreesWithExhaustiveRandom checks random truth-table
// certificates of random formulas and compares Check's verdict with an
// exhaustive evaluation of the matrix under the tables themselves.
func TestCheckAgreesWithExhaustiveRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	accepted := 0
	for iter := 0; iter < 150; iter++ {
		f := dqbf.RandomFormula(rng, 1+rng.Intn(3), 1+rng.Intn(3), 2+rng.Intn(8))
		points, isTrue := randomTruePoints(rng, f)
		want := true
		for bits := 0; bits < 1<<len(f.Univ) && want; bits++ {
			a := cnf.NewAssignment(f.Matrix.NumVars)
			for i, x := range f.Univ {
				a.Set(x, bits&(1<<i) != 0)
			}
			for _, y := range f.Exist {
				a.Set(y, isTrue[y][dqbf.ProjectionKey(f.Deps[y].Vars(), a.Get)])
			}
			want = f.Matrix.Eval(a)
		}
		err := cert.Check(f, cert.FromTruePoints(f, points))
		if got := err == nil; got != want {
			t.Fatalf("iter %d: Check=%v (%v) exhaustive=%v\n%v\n%v", iter, got, err, want, f, f.Matrix.Clauses)
		}
		if want {
			accepted++
		}
	}
	if accepted == 0 {
		t.Fatal("no random certificate was valid; the accepting path went untested")
	}
}

// TestIDQCertificatesThroughSharedChecker runs the table-producing engine
// and validates its lowered certificates with the same checker the HQS
// extractor's certificates go through.
func TestIDQCertificatesThroughSharedChecker(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	sat := 0
	for i := 0; i < 80; i++ {
		f := dqbf.RandomFormula(rng, 1+rng.Intn(3), 1+rng.Intn(3), 1+rng.Intn(10))
		res := idq.New(idq.Options{}).Solve(f)
		if res.Status != idq.Solved || !res.Sat || res.Certificate == nil {
			continue
		}
		sat++
		if err := cert.Check(f, res.Certificate); err != nil {
			t.Fatalf("instance %d: idq certificate rejected: %v\n%s", i, err, cert.Format(f, res.Certificate))
		}
	}
	if sat == 0 {
		t.Fatal("no SAT instance exercised the table path")
	}
}

// TestFormatShape pins the printed Skolem-table shape for a forced function.
func TestFormatShape(t *testing.T) {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddExistential(2, 1)
	f.Matrix.Clauses = []cnf.Clause{
		{cnf.NewLit(1, false), cnf.NewLit(2, false)},
		{cnf.NewLit(1, true), cnf.NewLit(2, true)},
	}
	opt := core.DefaultOptions()
	opt.Certify = true
	res := core.New(opt).Solve(problem.FromDQBF(f.Clone()))
	if !res.Sat || res.CertErr != nil {
		t.Fatalf("solve: sat %v certErr %v", res.Sat, res.CertErr)
	}
	got := cert.Format(f, res.Certificate)
	// f_2 = ¬x1: value 1 under x1=0, value 0 under x1=1.
	want := "s 2 deps=[1] : 0->1 1->0\n"
	if got != want {
		t.Fatalf("format:\n got %q\nwant %q", got, want)
	}
}

// TestExtractWithoutBuilder documents the nil-builder error.
func TestExtractWithoutBuilder(t *testing.T) {
	var b *cert.Builder
	if _, err := b.Extract(dqbf.New(), nil); err == nil {
		t.Fatal("nil builder extracted a certificate")
	}
}

// TestBuilderNilSafety exercises every recorder on a nil builder (recording
// sites are unguarded, so this must not panic).
func TestBuilderNilSafety(t *testing.T) {
	var b *cert.Builder
	b.RecordConst(1, true)
	b.RecordSubst(1, cnf.NewLit(2, false))
	b.RecordGate(1, false, false, nil)
	b.RecordExists(1, aig.False)
	b.RecordExpand(1, nil)
	b.RecordModel(nil)
}
