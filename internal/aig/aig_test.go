package aig

import (
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cnf"
)

// truthTable returns the truth table of r over the ordered variables vs.
func truthTable(g *Graph, r Ref, vs []cnf.Var) []bool {
	n := len(vs)
	out := make([]bool, 1<<n)
	for bits := 0; bits < 1<<n; bits++ {
		a := make(map[cnf.Var]bool, n)
		for i, v := range vs {
			a[v] = bits&(1<<i) != 0
		}
		out[bits] = g.Eval(r, func(v cnf.Var) bool { return a[v] })
	}
	return out
}

func eqTables(a, b []bool) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func TestConstants(t *testing.T) {
	g := New()
	if True.Not() != False || False.Not() != True {
		t.Fatal("constant complement broken")
	}
	if !g.Eval(True, nil) || g.Eval(False, nil) {
		t.Fatal("constant evaluation broken")
	}
	if g.And(True, False) != False || g.And(True, True) != True {
		t.Fatal("constant AND broken")
	}
	if g.Or(False, False) != False || g.Or(True, False) != True {
		t.Fatal("constant OR broken")
	}
}

func TestAndSimplifications(t *testing.T) {
	g := New()
	x := g.Input(1)
	y := g.Input(2)
	if g.And(x, x) != x {
		t.Error("x∧x ≠ x")
	}
	if g.And(x, x.Not()) != False {
		t.Error("x∧¬x ≠ 0")
	}
	if g.And(x, True) != x || g.And(True, x) != x {
		t.Error("x∧1 ≠ x")
	}
	if g.And(x, False) != False {
		t.Error("x∧0 ≠ 0")
	}
	// Structural hashing: same arguments give the same node.
	if g.And(x, y) != g.And(y, x) {
		t.Error("AND not commutatively hashed")
	}
	before := g.NumNodes()
	g.And(x, y)
	if g.NumNodes() != before {
		t.Error("structural hashing failed to reuse node")
	}
}

func TestDerivedOps(t *testing.T) {
	g := New()
	x, y, z := g.Input(1), g.Input(2), g.Input(3)
	vs := []cnf.Var{1, 2, 3}
	checks := []struct {
		name string
		r    Ref
		f    func(a, b, c bool) bool
	}{
		{"or", g.Or(x, y), func(a, b, _ bool) bool { return a || b }},
		{"xor", g.Xor(x, y), func(a, b, _ bool) bool { return a != b }},
		{"xnor", g.Xor(x, y).Not(), func(a, b, _ bool) bool { return a == b }},
		{"ite", g.Ite(x, y, z), func(a, b, c bool) bool {
			if a {
				return b
			}
			return c
		}},
	}
	for _, c := range checks {
		tt := truthTable(g, c.r, vs)
		for bits := 0; bits < 8; bits++ {
			want := c.f(bits&1 != 0, bits&2 != 0, bits&4 != 0)
			if tt[bits] != want {
				t.Errorf("%s: bits %03b: got %v want %v", c.name, bits, tt[bits], want)
			}
		}
	}
}

func TestAndNOrN(t *testing.T) {
	g := New()
	var refs []Ref
	for v := cnf.Var(1); v <= 5; v++ {
		refs = append(refs, g.Input(v))
	}
	and := g.AndN(refs...)
	or := g.OrN(refs...)
	if g.AndN() != True || g.OrN() != False {
		t.Fatal("empty AndN/OrN wrong")
	}
	all := func(v cnf.Var) bool { return true }
	none := func(v cnf.Var) bool { return false }
	one := func(v cnf.Var) bool { return v == 3 }
	if !g.Eval(and, all) || g.Eval(and, one) || g.Eval(and, none) {
		t.Error("AndN semantics wrong")
	}
	if !g.Eval(or, all) || !g.Eval(or, one) || g.Eval(or, none) {
		t.Error("OrN semantics wrong")
	}
}

// paperFig1 builds the AIG of the paper's Fig. 1 / Example 2:
//
//	φ = ¬(¬(¬y1∧x1) ∧ ¬y1) ∧ ¬(¬y1∧¬x2) ∧ ¬(x1∧¬y2) ∧ ¬(x2∧¬y2)
//
// which is equivalent to (y1∨x1)(y1∨x2)(¬x1∨y2)(¬x2∨y2). Variables are
// y1=1, y2=2, x1=3, x2=4. The first clause uses the figure's redundant
// structure, giving y1 paths of both parities — that is what makes the
// syntactic purity check fail for y1 in Example 4.
func paperFig1(g *Graph) Ref {
	y1, y2 := g.Input(1), g.Input(2)
	x1, x2 := g.Input(3), g.Input(4)
	c1 := g.And(g.And(y1.Not(), x1).Not(), y1.Not()).Not() // y1 ∨ x1 (redundant form)
	c2 := g.And(y1.Not(), x2.Not()).Not()                  // y1 ∨ x2
	c3 := g.And(x1, y2.Not()).Not()                        // ¬x1 ∨ y2
	c4 := g.And(x2, y2.Not()).Not()                        // ¬x2 ∨ y2
	return g.And(g.And(c1, c2), g.And(c3, c4))
}

func TestPaperExample2(t *testing.T) {
	g := New()
	r := paperFig1(g)
	vs := []cnf.Var{1, 2, 3, 4}
	tt := truthTable(g, r, vs)
	for bits := 0; bits < 16; bits++ {
		y1 := bits&1 != 0
		y2 := bits&2 != 0
		x1 := bits&4 != 0
		x2 := bits&8 != 0
		want := (y1 || x1) && (y1 || x2) && (y2 || !x1) && (y2 || !x2)
		if tt[bits] != want {
			t.Fatalf("Fig.1 AIG wrong at y1=%v y2=%v x1=%v x2=%v", y1, y2, x1, x2)
		}
	}
}

func TestPaperExample4UnitPure(t *testing.T) {
	// Example 4: the syntactic check identifies y2 as positive pure (all
	// paths have an even number of inverters) and fails for y1, x1, x2.
	g := New()
	r := paperFig1(g)
	up := g.UnitPure(r)
	if !up[2].PosPure {
		t.Error("y2 should be detected positive pure")
	}
	if up[2].NegPure {
		t.Error("y2 must not be negative pure")
	}
	// y1 is semantically positive pure but the syntactic check misses it.
	if up[1].PosPure || up[1].NegPure {
		t.Error("syntactic check should fail for y1 on this structure")
	}
	if up[3].PosPure || up[3].NegPure || up[4].PosPure || up[4].NegPure {
		t.Error("x1/x2 are not pure")
	}
	for v := cnf.Var(1); v <= 4; v++ {
		if up[v].PosUnit || up[v].NegUnit {
			t.Errorf("variable %d wrongly detected unit", v)
		}
	}
}

func TestUnitDetection(t *testing.T) {
	g := New()
	x, y := g.Input(1), g.Input(2)
	// φ = x ∧ (y ∨ ...): x on a negation-free path is positive unit.
	r := g.And(x, g.Or(y, g.Input(3)))
	up := g.UnitPure(r)
	if !up[1].PosUnit {
		t.Error("x should be positive unit")
	}
	if up[2].PosUnit {
		t.Error("y is not unit (OR path has negations in AIG encoding)")
	}
	// φ = ¬x ∧ y: x negative unit, y positive unit.
	r2 := g.And(x.Not(), y)
	up2 := g.UnitPure(r2)
	if !up2[1].NegUnit || !up2[2].PosUnit {
		t.Errorf("got %+v; want x negUnit, y posUnit", up2)
	}
	// Degenerate: φ = x alone.
	up3 := g.UnitPure(x)
	if !up3[1].PosUnit {
		t.Error("root input should be positive unit")
	}
	up4 := g.UnitPure(x.Not())
	if !up4[1].NegUnit {
		t.Error("negated root input should be negative unit")
	}
}

// semanticCheck computes the semantic unit/pure status per Definition 5.
func semanticCheck(g *Graph, r Ref, v cnf.Var, vs []cnf.Var) Polarity {
	cof := func(val bool) Ref { return g.Cofactor(r, v, val) }
	f0, f1 := cof(false), cof(true)
	t0 := truthTable(g, f0, vs)
	t1 := truthTable(g, f1, vs)
	posUnit, negUnit := true, true
	posPure, negPure := true, true
	for i := range t0 {
		if t0[i] {
			posUnit = false // φ[0/v] satisfiable
		}
		if t1[i] {
			negUnit = false
		}
		if t0[i] && !t1[i] {
			posPure = false // φ[0/v] ∧ ¬φ[1/v] satisfiable
		}
		if t1[i] && !t0[i] {
			negPure = false
		}
	}
	return Polarity{PosUnit: posUnit, NegUnit: negUnit, PosPure: posPure, NegPure: negPure}
}

// randomAIG builds a random AIG over the given inputs.
func randomAIG(g *Graph, rng *rand.Rand, vs []cnf.Var, ops int) Ref {
	pool := make([]Ref, 0, len(vs)+ops)
	for _, v := range vs {
		pool = append(pool, g.Input(v))
	}
	for i := 0; i < ops; i++ {
		a := pool[rng.Intn(len(pool))]
		b := pool[rng.Intn(len(pool))]
		if rng.Intn(2) == 0 {
			a = a.Not()
		}
		if rng.Intn(2) == 0 {
			b = b.Not()
		}
		pool = append(pool, g.And(a, b))
	}
	r := pool[len(pool)-1]
	if rng.Intn(2) == 0 {
		r = r.Not()
	}
	return r
}

func TestUnitPureSoundnessRandom(t *testing.T) {
	// Theorem 6 is a *sufficient* syntactic criterion: whenever the
	// traversal reports a flag, the semantic property of Definition 5 must
	// hold. (Completeness is not claimed by the paper.)
	rng := rand.New(rand.NewSource(7))
	vs := []cnf.Var{1, 2, 3, 4}
	for iter := 0; iter < 300; iter++ {
		g := New()
		r := randomAIG(g, rng, vs, 2+rng.Intn(10))
		up := g.UnitPure(r)
		for _, v := range vs {
			got, ok := up[v]
			if !ok {
				continue // not in support
			}
			sem := semanticCheck(g, r, v, vs)
			if got.PosUnit && !sem.PosUnit {
				t.Fatalf("iter %d: var %d flagged posUnit but not semantically", iter, v)
			}
			if got.NegUnit && !sem.NegUnit {
				t.Fatalf("iter %d: var %d flagged negUnit but not semantically", iter, v)
			}
			if got.PosPure && !sem.PosPure {
				t.Fatalf("iter %d: var %d flagged posPure but not semantically", iter, v)
			}
			if got.NegPure && !sem.NegPure {
				t.Fatalf("iter %d: var %d flagged negPure but not semantically", iter, v)
			}
		}
	}
}

func TestCompose(t *testing.T) {
	g := New()
	x, y, z := g.Input(1), g.Input(2), g.Input(3)
	r := g.And(x, g.Or(y, z))
	// Substitute x := y⊕z.
	sub := g.Compose(r, map[cnf.Var]Ref{1: g.Xor(y, z)})
	vs := []cnf.Var{2, 3}
	tt := truthTable(g, sub, vs)
	for bits := 0; bits < 4; bits++ {
		b, c := bits&1 != 0, bits&2 != 0
		want := (b != c) && (b || c)
		if tt[bits] != want {
			t.Fatalf("compose wrong at y=%v z=%v", b, c)
		}
	}
}

func TestComposeIdentityAndEmpty(t *testing.T) {
	g := New()
	x := g.Input(1)
	r := g.And(x, g.Input(2))
	if g.Compose(r, nil) != r {
		t.Error("empty substitution must be identity")
	}
	if g.Compose(r, map[cnf.Var]Ref{1: x}) != r {
		t.Error("identity substitution must be identity")
	}
}

func TestCofactorAndQuantify(t *testing.T) {
	g := New()
	x, y := g.Input(1), g.Input(2)
	r := g.Xor(x, y)
	c0 := g.Cofactor(r, 1, false)
	c1 := g.Cofactor(r, 1, true)
	if !eqTables(truthTable(g, c0, []cnf.Var{2}), truthTable(g, y, []cnf.Var{2})) {
		t.Error("cofactor 0 of x⊕y should be y")
	}
	if !eqTables(truthTable(g, c1, []cnf.Var{2}), truthTable(g, y.Not(), []cnf.Var{2})) {
		t.Error("cofactor 1 of x⊕y should be ¬y")
	}
	if g.Exists(r, 1) != True {
		t.Error("∃x. x⊕y = 1")
	}
	if g.Forall(r, 1) != False {
		t.Error("∀x. x⊕y = 0")
	}
	// ∀x. x∨y = y
	or := g.Or(x, y)
	if fa := g.Forall(or, 1); fa != y {
		t.Errorf("∀x. x∨y = %v, want y", fa)
	}
	if ex := g.Exists(or, 1); ex != True {
		t.Error("∃x. x∨y = 1")
	}
}

func TestQuantifyRandomAgainstSemantics(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	vs := []cnf.Var{1, 2, 3}
	for iter := 0; iter < 100; iter++ {
		g := New()
		r := randomAIG(g, rng, vs, 2+rng.Intn(8))
		ex := g.Exists(r, 2)
		fa := g.Forall(r, 2)
		for bits := 0; bits < 4; bits++ {
			a := map[cnf.Var]bool{1: bits&1 != 0, 3: bits&2 != 0}
			eval := func(v2 bool) bool {
				a[2] = v2
				return g.Eval(r, func(v cnf.Var) bool { return a[v] })
			}
			v0, v1 := eval(false), eval(true)
			delete(a, 2)
			read := func(rr Ref) bool {
				return g.Eval(rr, func(v cnf.Var) bool { return a[v] })
			}
			if read(ex) != (v0 || v1) {
				t.Fatalf("iter %d: exists wrong", iter)
			}
			if read(fa) != (v0 && v1) {
				t.Fatalf("iter %d: forall wrong", iter)
			}
		}
	}
}

func TestRename(t *testing.T) {
	g := New()
	x, y := g.Input(1), g.Input(2)
	r := g.And(x, y.Not())
	rn := g.Rename(r, map[cnf.Var]cnf.Var{1: 5, 2: 6})
	sup := g.Support(rn)
	if !sup[5] || !sup[6] || sup[1] || sup[2] {
		t.Fatalf("support after rename = %v", sup)
	}
}

func TestSupportAndConeSize(t *testing.T) {
	g := New()
	x, y, z := g.Input(1), g.Input(2), g.Input(3)
	r := g.And(g.Or(x, y), z)
	sup := g.Support(r)
	if len(sup) != 3 {
		t.Fatalf("support = %v", sup)
	}
	if g.ConeSize(r) != 2 { // OR is one AND node, plus the top AND
		t.Fatalf("cone size = %d", g.ConeSize(r))
	}
	if g.ConeSize(True) != 0 {
		t.Fatal("constant cone must be empty")
	}
	// x ∧ ¬x simplifies to constant; support empty.
	if len(g.Support(g.And(x, x.Not()))) != 0 {
		t.Fatal("constant support must be empty")
	}
}

// falsePoints enumerates, with Exhaustive, the first limit assignments of
// counting order over vs that falsify r: each answer's minterm is OR-ed into
// the root before the next call, so the next Falsified verdict must be the
// next false point. The enumeration ends early at a Valid verdict.
func falsePoints(t *testing.T, g *Graph, r Ref, vs []cnf.Var, limit int) []int {
	t.Helper()
	var out []int
	for len(out) < limit {
		verdict, cex := g.Exhaustive(r, vs, 1<<30)
		if verdict == Valid {
			break
		}
		if verdict != Falsified || len(cex) != len(vs) {
			t.Fatalf("verdict %v with assignment %v over %d variables", verdict, cex, len(vs))
		}
		idx := 0
		minterm := True
		for j, b := range cex {
			if b {
				idx |= 1 << j
			}
			minterm = g.And(minterm, g.Input(vs[j]).XorSign(!b))
		}
		out = append(out, idx)
		r = g.Or(r, minterm)
	}
	return out
}

// tableFalsePoints returns the first limit indices where table is false.
func tableFalsePoints(table []bool, limit int) []int {
	var out []int
	for i, v := range table {
		if !v && len(out) < limit {
			out = append(out, i)
		}
	}
	return out
}

func TestExhaustive(t *testing.T) {
	g := New()
	x, y := g.Input(1), g.Input(2)
	vs := []cnf.Var{1, 2}
	// x⊕y has the truth table 0110 over (x, y): false at 00 and 11.
	if got := falsePoints(t, g, g.Xor(x, y), vs, 4); !slices.Equal(got, []int{0, 3}) {
		t.Fatalf("xor false points = %v, want [0 3]", got)
	}
	if v, _ := g.Exhaustive(True, vs, 0); v != Valid {
		t.Fatalf("True: verdict %v", v)
	}
	if v, cex := g.Exhaustive(False, vs, 0); v != Falsified || !slices.Equal(cex, []bool{false, false}) {
		t.Fatalf("False: verdict %v at %v", v, cex)
	}
	// Variables the cone does not read are not enumerated and stay false:
	// over (3, 2, 1) the second false point of x⊕y is 3=0, 2=1, 1=1, and
	// a work bound of |cone|·2^0 suffices although three variables are
	// listed.
	xor := g.Xor(x, y)
	if v, cex := g.Exhaustive(g.Or(xor, g.And(x.Not(), y.Not())), []cnf.Var{3, 2, 1}, int64(len(g.coneNodes(xor))+2)); v != Falsified || !slices.Equal(cex, []bool{false, true, true}) {
		t.Fatalf("xor over a superset of its support: verdict %v at %v", v, cex)
	}
	// k = 0: the constants are the only functions without support.
	if v, _ := g.Exhaustive(True, nil, 0); v != Valid {
		t.Fatalf("True over no variables: verdict %v", v)
	}
	if v, cex := g.Exhaustive(False, nil, 0); v != Falsified || len(cex) != 0 {
		t.Fatalf("False over no variables: verdict %v at %v", v, cex)
	}
	// A valid function that structural hashing cannot fold to True.
	valid := g.Or(g.Or(g.And(x, y), x.Not()), g.And(x, y.Not()))
	if valid == True {
		t.Fatal("test function folded to a constant")
	}
	if v, _ := g.Exhaustive(valid, vs, 1<<30); v != Valid {
		t.Fatalf("valid function: verdict %v", v)
	}
	// Its complement is false everywhere, so it fails at assignment 0.
	if v, cex := g.Exhaustive(valid.Not(), vs, 1<<30); v != Falsified || !slices.Equal(cex, []bool{false, false}) {
		t.Fatalf("complemented valid function: verdict %v at %v", v, cex)
	}
}

// TestExhaustiveMatchesEval compares the kernel's false points with the
// truth table Graph.Eval computes, for random functions and their
// complements over 1 to 12 variables: one word holding repeated patterns
// (k < 6), partial chunks (6 ≤ k < 9) and several chunks (k ≥ 9). The
// variable order is shuffled, so vars[j] must read bit j whatever its number.
func TestExhaustiveMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for iter := 0; iter < 60; iter++ {
		k := 1 + iter%12
		vs := make([]cnf.Var, k)
		for i := range vs {
			vs[i] = cnf.Var(i + 1)
		}
		g := New()
		r := randomAIG(g, rng, vs, 3*k)
		rng.Shuffle(k, func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
		for _, root := range []Ref{r, r.Not()} {
			table := truthTable(g, root, vs)
			want := tableFalsePoints(table, 8)
			if got := falsePoints(t, g, root, vs, 8); !slices.Equal(got, want) {
				t.Fatalf("iter %d (k=%d): false points %v, table %v", iter, k, got, want)
			}
			// Once every false point is OR-ed in, the function is valid.
			if all := tableFalsePoints(table, len(table)); len(all) <= 8 {
				if got := falsePoints(t, g, root, vs, 9); len(got) != len(all) {
					t.Fatalf("iter %d (k=%d): %d false points, table has %d", iter, k, len(got), len(all))
				}
			}
		}
	}
}

// TestExhaustiveWorkBound pins the bound: 2^max(0,k−6)·|cone| at most
// maxWork is decided, one more is not, and an undecided call simulates
// nothing.
func TestExhaustiveWorkBound(t *testing.T) {
	for _, k := range []int{3, 6, 8, 11} {
		g := New()
		vs := make([]cnf.Var, k)
		lits := make([]Ref, k)
		for i := range vs {
			vs[i] = cnf.Var(i + 1)
			lits[i] = g.Input(vs[i])
		}
		r := g.OrN(lits...) // false only at assignment 0
		work := int64(len(g.coneNodes(r))) << max(0, k-6)
		if v, cex := g.Exhaustive(r, vs, work); v != Falsified || !slices.Equal(cex, make([]bool, k)) {
			t.Fatalf("k=%d at the bound: verdict %v at %v", k, v, cex)
		}
		if v, cex := g.Exhaustive(r, vs, work-1); v != Undecided || cex != nil {
			t.Fatalf("k=%d over the bound: verdict %v at %v", k, v, cex)
		}
	}
}

// TestExhaustiveUncoveredInputPanics: vars must cover the support; an input
// missing from it is a caller bug.
func TestExhaustiveUncoveredInputPanics(t *testing.T) {
	g := New()
	r := g.And(g.Input(1), g.Input(2))
	defer func() {
		if recover() == nil {
			t.Fatal("uncovered input did not panic")
		}
	}()
	g.Exhaustive(r, []cnf.Var{1}, 1<<30)
}

func TestToFormulaEquisatisfiable(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	vs := []cnf.Var{1, 2, 3}
	for iter := 0; iter < 100; iter++ {
		g := New()
		r := randomAIG(g, rng, vs, 6)
		f, lit := g.ToFormula(r, 3)
		// For every input assignment, f with the inputs fixed and lit
		// asserted must be satisfiable iff r evaluates true.
		for bits := 0; bits < 8; bits++ {
			a := map[cnf.Var]bool{1: bits&1 != 0, 2: bits&2 != 0, 3: bits&4 != 0}
			want := g.Eval(r, func(v cnf.Var) bool { return a[v] })
			got := evalTseitin(f, lit, a)
			if got != want {
				t.Fatalf("iter %d bits %03b: tseitin %v, eval %v", iter, bits, got, want)
			}
		}
	}
}

// evalTseitin checks satisfiability of f ∧ lit ∧ (fixed inputs) by brute
// force over the auxiliary variables.
func evalTseitin(f *cnf.Formula, lit cnf.Lit, inputs map[cnf.Var]bool) bool {
	var aux []cnf.Var
	for v := cnf.Var(1); int(v) <= f.NumVars; v++ {
		if _, fixed := inputs[v]; !fixed {
			aux = append(aux, v)
		}
	}
	if len(aux) > 16 {
		panic("too many aux vars for brute force")
	}
	a := cnf.NewAssignment(f.NumVars)
	for v, val := range inputs {
		a.Set(v, val)
	}
	for bits := 0; bits < 1<<len(aux); bits++ {
		for i, v := range aux {
			a.Set(v, bits&(1<<i) != 0)
		}
		if a.Lit(lit) && f.Eval(a) {
			return true
		}
	}
	return false
}

func TestIsSatisfiableAndEquivalent(t *testing.T) {
	g := New()
	x, y := g.Input(1), g.Input(2)
	sat, model := g.IsSatisfiable(g.And(x, y.Not()))
	if !sat {
		t.Fatal("x∧¬y is satisfiable")
	}
	if !model[1] || model[2] {
		t.Fatalf("bad model %v", model)
	}
	if ok, _ := g.IsSatisfiable(g.And(x, x.Not())); ok {
		t.Fatal("x∧¬x is unsatisfiable")
	}
	if ok, _ := g.IsSatisfiable(False); ok {
		t.Fatal("False is unsatisfiable")
	}
	if ok, _ := g.IsSatisfiable(True); !ok {
		t.Fatal("True is satisfiable")
	}
	// De Morgan.
	lhs := g.And(x, y).Not()
	rhs := g.Or(x.Not(), y.Not())
	if !g.Equivalent(lhs, rhs) {
		t.Fatal("De Morgan equivalence not detected")
	}
	if g.Equivalent(x, y) {
		t.Fatal("x and y are not equivalent")
	}
}

func TestSweepMergesEquivalentNodes(t *testing.T) {
	g := New()
	x, y := g.Input(1), g.Input(2)
	// Build x⊕y twice with different structure, conjoin with a mux form.
	xor1 := g.Or(g.And(x, y.Not()), g.And(x.Not(), y))
	xor2 := g.And(g.Or(x, y), g.And(x, y).Not())
	both := g.And(xor1, g.Or(xor2, g.Input(3)))
	swept, stats := g.Sweep(both, DefaultSweepOptions())
	if !g.Equivalent(both, swept) {
		t.Fatal("sweep changed the function")
	}
	if stats.Merged == 0 {
		t.Fatal("sweep should merge the structurally different XORs")
	}
	if g.ConeSize(swept) >= g.ConeSize(both) {
		t.Fatalf("sweep did not shrink cone: %d -> %d", g.ConeSize(both), g.ConeSize(swept))
	}
}

func TestSweepPreservesSemanticsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	vs := []cnf.Var{1, 2, 3, 4}
	for iter := 0; iter < 60; iter++ {
		g := New()
		r := randomAIG(g, rng, vs, 15)
		swept, _ := g.Sweep(r, DefaultSweepOptions())
		if !eqTables(truthTable(g, r, vs), truthTable(g, swept, vs)) {
			t.Fatalf("iter %d: sweep changed semantics", iter)
		}
	}
}

func TestSweepDetectsConstants(t *testing.T) {
	g := New()
	x, y := g.Input(1), g.Input(2)
	// (x∨y) ∨ (¬x∧¬y) is a tautology hidden behind structure.
	taut := g.Or(g.Or(x, y), g.And(x.Not(), y.Not()))
	swept, _ := g.Sweep(taut, DefaultSweepOptions())
	if swept != True && g.ConeSize(swept) >= g.ConeSize(taut) {
		// The tautology reaches the constant bucket only if the constant
		// node participates; at minimum the cone must not grow.
		t.Fatalf("sweep grew a tautology cone: %d -> %d", g.ConeSize(taut), g.ConeSize(swept))
	}
	if !g.Equivalent(swept, True) {
		t.Fatal("tautology no longer a tautology after sweep")
	}
}

func TestNodeLimit(t *testing.T) {
	g := New()
	g.NodeLimit = 8
	defer func() {
		if r := recover(); r == nil {
			t.Fatal("expected ErrNodeLimit panic")
		} else if _, ok := r.(ErrNodeLimit); !ok {
			t.Fatalf("unexpected panic %v", r)
		}
	}()
	prev := g.Input(1)
	for v := cnf.Var(2); v < 100; v++ {
		prev = g.And(prev, g.Input(v))
	}
}

func TestInputValidation(t *testing.T) {
	g := New()
	defer func() {
		if recover() == nil {
			t.Fatal("Input(0) should panic")
		}
	}()
	g.Input(0)
}

func TestInputVar(t *testing.T) {
	g := New()
	x := g.Input(7)
	if g.InputVar(x) != 7 {
		t.Fatal("InputVar broken")
	}
	if g.InputVar(True) != 0 || g.InputVar(False) != 0 {
		t.Fatal("constants are not inputs")
	}
	a := g.And(x, g.Input(8))
	if g.InputVar(a) != 0 {
		t.Fatal("AND node is not an input")
	}
}

func TestRefProperties(t *testing.T) {
	f := func(n uint16, c bool) bool {
		r := Ref(int32(n)<<1 | 1)
		if !c {
			r = Ref(int32(n) << 1)
		}
		return r.compl() == c && r.Not().Not() == r && r.Not().compl() != c
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestGraphString(t *testing.T) {
	g := New()
	g.And(g.Input(1), g.Input(2))
	s := g.String()
	if s == "" {
		t.Fatal("empty String()")
	}
}
