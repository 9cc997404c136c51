package cert_test

import (
	"math/rand"
	"regexp"
	"strconv"
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

// bySAT is the bound that sends every certificate to the SAT decider.
const bySAT = -1

var assignmentRe = regexp.MustCompile(`falsified at universal assignment \{([^}]*)\}`)

// checkCounterexample asserts that a rejection naming a universal assignment
// names one that falsifies the matrix once every existential takes the
// value Graph.Eval gives its certified function there.
func checkCounterexample(t *testing.T, f *dqbf.Formula, c *cert.Certificate, err error) {
	t.Helper()
	m := assignmentRe.FindStringSubmatch(err.Error())
	if m == nil {
		return
	}
	a := cnf.NewAssignment(f.Matrix.NumVars)
	seen := 0
	for _, part := range strings.Split(m[1], ",") {
		v, val, ok := strings.Cut(part, "=")
		x, atoiErr := strconv.Atoi(v)
		if !ok || atoiErr != nil || (val != "0" && val != "1") {
			t.Fatalf("malformed assignment %q in %v", part, err)
		}
		a.Set(cnf.Var(x), val == "1")
		seen++
	}
	if seen != len(f.Univ) {
		t.Fatalf("assignment names %d variables, the formula has %d universals: %v", seen, len(f.Univ), err)
	}
	for _, y := range f.Exist {
		a.Set(y, c.G.Eval(c.Funcs[y], a.Get))
	}
	if f.Matrix.Eval(a) {
		t.Fatalf("reported assignment satisfies the substituted matrix: %v\n%v\n%v", err, f, f.Matrix.Clauses)
	}
}

// mutants returns c and two corruptions of it sharing its graph: the
// function of one existential negated, and one entry of another's truth
// table over its dependency set flipped.
func mutants(rng *rand.Rand, f *dqbf.Formula, c *cert.Certificate) []*cert.Certificate {
	with := func(y cnf.Var, fn aig.Ref) *cert.Certificate {
		funcs := make(map[cnf.Var]aig.Ref, len(c.Funcs))
		for v, r := range c.Funcs {
			funcs[v] = r
		}
		funcs[y] = fn
		return &cert.Certificate{G: c.G, Funcs: funcs}
	}
	y := f.Exist[rng.Intn(len(f.Exist))]
	negated := with(y, c.Funcs[y].Not())
	y = f.Exist[rng.Intn(len(f.Exist))]
	point := aig.True
	for _, d := range f.Deps[y].Vars() {
		point = c.G.And(point, c.G.Input(d).XorSign(rng.Intn(2) == 0))
	}
	flipped := with(y, c.G.Xor(c.Funcs[y], point))
	return []*cert.Certificate{c, negated, flipped}
}

// TestCheckDecidersAgree is the differential test of the two deciders:
// over seeded random formulas with up to 11 universals (one word, partial
// and several simulation chunks), the HQS and iDQ certificates of every SAT
// instance and their negated and flipped mutants get the same verdict from the
// exhaustive decider and the SAT call, and every counterexample either
// reports falsifies the matrix.
func TestCheckDecidersAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	opt := core.DefaultOptions()
	opt.Certify = true
	accepted, rejected := 0, 0
	for i := 0; i < 300; i++ {
		f := dqbf.RandomFormula(rng, 1+rng.Intn(11), 1+rng.Intn(4), 1+rng.Intn(8))
		res := core.New(opt).Solve(problem.FromDQBF(f.Clone()))
		if res.Status != core.Solved || !res.Sat {
			continue
		}
		if res.CertErr != nil {
			t.Fatalf("instance %d: extraction failed: %v", i, res.CertErr)
		}
		certs := mutants(rng, f, res.Certificate)
		if ires := idq.New(idq.Options{}).Solve(f); ires.Sat {
			certs = append(certs, mutants(rng, f, ires.Certificate)...)
		}
		for j, c := range certs {
			errK := cert.Check(f, c)
			errS := cert.CheckWork(f, c, bySAT)
			if (errK == nil) != (errS == nil) {
				t.Fatalf("instance %d mutant %d: exhaustive %v, SAT %v\n%v\n%v", i, j, errK, errS, f, f.Matrix.Clauses)
			}
			if j%3 == 0 && errK != nil {
				t.Fatalf("instance %d: solver certificate rejected: %v", i, errK)
			}
			if errK == nil {
				accepted++
				continue
			}
			rejected++
			checkCounterexample(t, f, c, errK)
			checkCounterexample(t, f, c, errS)
		}
	}
	t.Logf("accepted %d, rejected %d", accepted, rejected)
	if accepted == 0 || rejected == 0 {
		t.Fatalf("accepted %d, rejected %d: one verdict went untested", accepted, rejected)
	}
}

// TestCheckOverBoundUsesSAT: ∀x1..x24 ∃y(x1..x24) with y ↔ x1∧…∧x24. The
// substituted matrix reads all 24 universals and its cone has more than 16
// nodes, so the exhaustive work 2^18·|cone| exceeds the bound and Check
// decides by SAT. It must accept the right certificate and reject
// corrupted ones with a falsifying assignment, as the unbounded exhaustive
// decider does.
func TestCheckOverBoundUsesSAT(t *testing.T) {
	const n = 24
	f := dqbf.New()
	y := cnf.Var(n + 1)
	all := make(cnf.Clause, 0, n+1)
	for i := 1; i <= n; i++ {
		f.AddUniversal(cnf.Var(i))
		f.Matrix.AddClause(cnf.NegLit(y), cnf.PosLit(cnf.Var(i)))
		all = append(all, cnf.NegLit(cnf.Var(i)))
	}
	f.Matrix.AddClause(append(all, cnf.PosLit(y))...)
	f.AddExistential(y, f.Univ...)

	g := aig.New()
	lits := make([]aig.Ref, n)
	for i := range lits {
		lits[i] = g.Input(cnf.Var(i + 1))
	}
	and := g.AndN(lits...)
	for _, tc := range []struct {
		name  string
		fn    aig.Ref
		valid bool
	}{
		{"right", and, true},
		{"negated", and.Not(), false},
		{"drops x24", g.AndN(lits[:n-1]...), false},
	} {
		c := &cert.Certificate{G: g, Funcs: map[cnf.Var]aig.Ref{y: tc.fn}}
		err := cert.Check(f, c)
		if (err == nil) != tc.valid {
			t.Fatalf("%s: Check = %v", tc.name, err)
		}
		if errK := cert.CheckWork(f, c, 1<<40); (errK == nil) != tc.valid {
			t.Fatalf("%s: unbounded exhaustive decider = %v", tc.name, errK)
		}
		if err != nil {
			checkCounterexample(t, f, c, err)
		}
	}
}

// example1 is Example 1 of the paper, ∀x1 x2 ∃y3(x1) ∃y4(x2):
// (y3 ↔ x1) ∧ (y4 ↔ x2), satisfied only by y3 = x1, y4 = x2.
const example1 = "p cnf 4 4\na 1 2 0\nd 3 1 0\nd 4 2 0\n-3 1 0\n3 -1 0\n-4 2 0\n4 -2 0\n"

// FuzzCertCheck decodes fuzzed certificate bytes against Example 1. Every
// certificate that decodes gets the same verdict from both deciders, and
// every counterexample reported falsifies the matrix.
func FuzzCertCheck(f *testing.F) {
	g := aig.New()
	x1, x2 := g.Input(1), g.Input(2)
	for _, fn3 := range []aig.Ref{x1, x1.Not()} {
		blob, err := cert.Encode(&cert.Certificate{G: g, Funcs: map[cnf.Var]aig.Ref{3: fn3, 4: x2}})
		if err != nil {
			f.Fatal(err)
		}
		f.Add(blob)
	}
	formula, err := dqbf.ParseDQDIMACS([]byte(example1))
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := cert.Decode(data)
		if err != nil {
			return
		}
		errK := cert.Check(formula, c)
		errS := cert.CheckWork(formula, c, bySAT)
		if (errK == nil) != (errS == nil) {
			t.Fatalf("exhaustive %v, SAT %v", errK, errS)
		}
		if errK != nil {
			checkCounterexample(t, formula, c, errK)
			checkCounterexample(t, formula, c, errS)
		}
	})
}
