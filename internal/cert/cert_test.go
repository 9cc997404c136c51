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

// TestFromTablesMatchesTableSemantics lifts random table certificates into
// AIG form and compares both representations pointwise over all universal
// assignments.
func TestFromTablesMatchesTableSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 60; i++ {
		f := dqbf.RandomFormula(rng, 1+rng.Intn(3), 1+rng.Intn(3), 1)
		tc := &dqbf.Certificate{
			Tables:   make(map[cnf.Var]map[string]bool),
			Defaults: make(map[cnf.Var]bool),
		}
		for _, y := range f.Exist {
			tc.Defaults[y] = rng.Intn(2) == 0
			tbl := make(map[string]bool)
			deps := f.Deps[y].Vars()
			// Fill a random subset of the projection keys.
			for bits := 0; bits < 1<<len(deps); bits++ {
				if rng.Intn(2) == 0 {
					continue
				}
				bits := bits
				key := dqbf.ProjectionKey(deps, func(v cnf.Var) bool {
					for i, d := range deps {
						if d == v {
							return bits&(1<<i) != 0
						}
					}
					return false
				})
				tbl[key] = rng.Intn(2) == 0
			}
			tc.Tables[y] = tbl
		}
		ac, err := cert.FromTables(f, tc)
		if err != nil {
			t.Fatalf("instance %d: FromTables: %v", i, err)
		}
		for _, y := range f.Exist {
			deps := f.Deps[y].Vars()
			for bits := 0; bits < 1<<len(deps); bits++ {
				bits := bits
				assign := func(v cnf.Var) bool {
					for i, d := range deps {
						if d == v {
							return bits&(1<<i) != 0
						}
					}
					return false
				}
				want := tc.Value(f, y, assign)
				got := ac.G.Eval(ac.Funcs[y], assign)
				if got != want {
					t.Fatalf("instance %d: var %d bits %b: AIG %v, table %v", i, y, bits, got, want)
				}
			}
		}
	}
}

// TestFromTablesRejectsBadArity expects a key of the wrong length to be an
// error, matching the table checker's own strictness.
func TestFromTablesRejectsBadArity(t *testing.T) {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddExistential(2, 1)
	f.Matrix.Clauses = []cnf.Clause{{cnf.NewLit(2, false)}}
	tc := &dqbf.Certificate{Tables: map[cnf.Var]map[string]bool{2: {"01": true}}}
	if _, err := cert.FromTables(f, tc); err == nil || !strings.Contains(err.Error(), "arity") {
		t.Fatalf("want an arity error, got: %v", err)
	}
}

// TestIDQCertificatesThroughSharedChecker runs the table-producing engine
// and validates its certificates through the same checker path the HQS
// extractor uses.
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
		ac, err := cert.FromTables(f, res.Certificate)
		if err != nil {
			t.Fatalf("instance %d: FromTables: %v", i, err)
		}
		if err := cert.Check(f, ac); err != nil {
			t.Fatalf("instance %d: idq certificate rejected: %v\n%s", i, err, cert.Format(f, ac))
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
	if b.Steps() != 0 {
		t.Fatal("nil builder recorded steps")
	}
}
