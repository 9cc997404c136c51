package dqbf

import (
	"bytes"
	"math/rand"
	"slices"
	"testing"
	"testing/quick"

	"repro/internal/cnf"
)

func TestVarSetBasics(t *testing.T) {
	s := NewVarSet(1, 3, 65)
	if !s.Has(1) || !s.Has(3) || !s.Has(65) || s.Has(2) {
		t.Fatal("Has broken")
	}
	if s.Len() != 3 {
		t.Fatalf("Len = %d", s.Len())
	}
	s.Remove(3)
	if s.Has(3) || s.Len() != 2 {
		t.Fatal("Remove broken")
	}
	if s.Empty() {
		t.Fatal("set is not empty")
	}
	if !NewVarSet().Empty() {
		t.Fatal("fresh set should be empty")
	}
	if s.String() != "{1,65}" {
		t.Fatalf("String = %q", s.String())
	}
}

func TestVarSetOpsAgainstMaps(t *testing.T) {
	f := func(a, b []uint8) bool {
		sa, sb := NewVarSet(), NewVarSet()
		ma, mb := map[cnf.Var]bool{}, map[cnf.Var]bool{}
		for _, x := range a {
			v := cnf.Var(x%100 + 1)
			sa.Add(v)
			ma[v] = true
		}
		for _, x := range b {
			v := cnf.Var(x%100 + 1)
			sb.Add(v)
			mb[v] = true
		}
		subset := true
		for v := range ma {
			if !mb[v] {
				subset = false
			}
		}
		if sa.SubsetOf(sb) != subset {
			return false
		}
		diff := sa.Diff(sb)
		for v := range ma {
			if diff.Has(v) == mb[v] {
				return false
			}
		}
		uni := sa.Union(sb)
		inter := sa.Intersect(sb)
		for v := cnf.Var(1); v <= 101; v++ {
			if uni.Has(v) != (ma[v] || mb[v]) {
				return false
			}
			if inter.Has(v) != (ma[v] && mb[v]) {
				return false
			}
		}
		return sa.Clone().Equal(sa)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestVarSetVarsSorted(t *testing.T) {
	s := NewVarSet(70, 2, 130, 5)
	vs := s.Vars()
	want := []cnf.Var{2, 5, 70, 130}
	if len(vs) != len(want) {
		t.Fatalf("Vars = %v", vs)
	}
	for i := range vs {
		if vs[i] != want[i] {
			t.Fatalf("Vars = %v, want %v", vs, want)
		}
	}
}

// paperExample1 builds ∀x1∀x2 ∃y1(x1) ∃y2(x2) : φ with x1=1, x2=2, y1=3,
// y2=4 and the matrix (y1↔x1) ∧ (y2↔x2).
func paperExample1() *Formula {
	f := New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddExistential(3, 1)
	f.AddExistential(4, 2)
	f.Matrix.AddDimacsClause(-3, 1)
	f.Matrix.AddDimacsClause(3, -1)
	f.Matrix.AddDimacsClause(-4, 2)
	f.Matrix.AddDimacsClause(4, -2)
	return f
}

func TestPaperExample1DependencyGraph(t *testing.T) {
	f := paperExample1()
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	g := DependencyGraph(f)
	// Fig. 2: a 2-cycle between y1 and y2.
	if !g.HasEdge(3, 4) || !g.HasEdge(4, 3) {
		t.Fatal("expected edges y1→y2 and y2→y1")
	}
	if !IsCyclic(f) {
		t.Fatal("Example 1 has no equivalent QBF prefix (Theorem 3)")
	}
	if HasQBFPrefix(f) {
		t.Fatal("HasQBFPrefix must be false")
	}
	cycles := BinaryCycles(f)
	if len(cycles) != 1 {
		t.Fatalf("cycles = %v", cycles)
	}
}

func TestPaperExample1Satisfiable(t *testing.T) {
	// y1 := x1, y2 := x2 are Skolem functions, so the DQBF is satisfied.
	sat, err := BruteForce(paperExample1())
	if err != nil {
		t.Fatal(err)
	}
	if !sat {
		t.Fatal("Example 1 matrix (y1↔x1)∧(y2↔x2) is satisfiable")
	}
}

func TestCrossDependencyUnsat(t *testing.T) {
	// ∀x1∀x2 ∃y1(x2) ∃y2(x1) : (y1↔x1) ∧ (y2↔x2): y1 must equal x1 but may
	// only depend on x2 — unsatisfiable.
	f := New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddExistential(3, 2)
	f.AddExistential(4, 1)
	f.Matrix.AddDimacsClause(-3, 1)
	f.Matrix.AddDimacsClause(3, -1)
	f.Matrix.AddDimacsClause(-4, 2)
	f.Matrix.AddDimacsClause(4, -2)
	sat, err := BruteForce(f)
	if err != nil {
		t.Fatal(err)
	}
	if sat {
		t.Fatal("cross-dependency identity is unsatisfiable")
	}
}

func TestQBFEquivalentDQBFAcyclic(t *testing.T) {
	// ∀x1 ∃y1(x1) ∀x2 ∃y2(x1,x2) as DQBF: linear dependencies, acyclic.
	f := New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddExistential(3, 1)
	f.AddExistential(4, 1, 2)
	if IsCyclic(f) {
		t.Fatal("linear prefix must be acyclic")
	}
	blocks := Linearize(f)
	if len(blocks) != 2 {
		t.Fatalf("blocks = %+v", blocks)
	}
	if len(blocks[0].Univ) != 1 || blocks[0].Univ[0] != 1 || blocks[0].Exist[0] != 3 {
		t.Fatalf("block 0 = %+v", blocks[0])
	}
	if len(blocks[1].Univ) != 1 || blocks[1].Univ[0] != 2 || blocks[1].Exist[0] != 4 {
		t.Fatalf("block 1 = %+v", blocks[1])
	}
}

func TestLinearizeTrailingUniversals(t *testing.T) {
	f := New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddExistential(3, 1)
	blocks := Linearize(f)
	// ∀1 ∃3 ∀2 — variable 2 lands in a trailing universal block.
	if len(blocks) != 2 || len(blocks[1].Univ) != 1 || blocks[1].Univ[0] != 2 {
		t.Fatalf("blocks = %+v", blocks)
	}
	if len(blocks[1].Exist) != 0 {
		t.Fatal("trailing block must have no existentials")
	}
}

func TestLinearizeEqualDepsShareBlock(t *testing.T) {
	f := New()
	f.AddUniversal(1)
	f.AddExistential(2, 1)
	f.AddExistential(3, 1)
	blocks := Linearize(f)
	if len(blocks) != 1 || len(blocks[0].Exist) != 2 {
		t.Fatalf("blocks = %+v", blocks)
	}
}

func TestLinearizePanicsOnCyclic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("Linearize must panic on cyclic graphs")
		}
	}()
	Linearize(paperExample1())
}

// linearizeRespectsDeps checks the defining property of the construction:
// for every existential y, the universals left of y's block in the linear
// prefix are a superset of D_y, and universals introduced after y's block
// are not in D_y.
func linearizeRespectsDeps(t *testing.T, f *Formula) {
	t.Helper()
	blocks := Linearize(f)
	seen := NewVarSet()
	placed := make(map[cnf.Var]*VarSet)
	for _, b := range blocks {
		for _, x := range b.Univ {
			seen.Add(x)
		}
		for _, y := range b.Exist {
			placed[y] = seen.Clone()
		}
	}
	if len(placed) != len(f.Exist) {
		t.Fatalf("linearization lost existentials: %d of %d", len(placed), len(f.Exist))
	}
	for _, y := range f.Exist {
		// The QBF prefix gives y dependency set = placed[y]; equivalence to
		// the DQBF prefix requires D_y = placed[y] exactly (Definition 3's
		// translation back to DQBF).
		if !f.Deps[y].Equal(placed[y]) {
			t.Fatalf("existential %d: deps %v but linear prefix gives %v",
				y, f.Deps[y], placed[y])
		}
	}
}

func TestLinearizeRandomAcyclic(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for iter := 0; iter < 200; iter++ {
		f := New()
		nUniv := 1 + rng.Intn(5)
		for i := 0; i < nUniv; i++ {
			f.AddUniversal(cnf.Var(i + 1))
		}
		// Build a random *chain* of dependency sets to guarantee acyclicity.
		cur := NewVarSet()
		nExist := 1 + rng.Intn(5)
		for i := 0; i < nExist; i++ {
			// Extend the chain by a random subset of unused universals.
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
		if IsCyclic(f) {
			t.Fatalf("iter %d: chain construction produced a cycle", iter)
		}
		linearizeRespectsDeps(t, f)
	}
}

func TestTheorem4RandomConsistency(t *testing.T) {
	// IsCyclic (pairwise incomparability) must agree with an explicit cycle
	// search on the dependency graph.
	rng := rand.New(rand.NewSource(6))
	for iter := 0; iter < 200; iter++ {
		f := New()
		nUniv := 1 + rng.Intn(5)
		for i := 0; i < nUniv; i++ {
			f.AddUniversal(cnf.Var(i + 1))
		}
		nExist := 1 + rng.Intn(5)
		for i := 0; i < nExist; i++ {
			y := cnf.Var(nUniv + i + 1)
			var deps []cnf.Var
			for _, x := range f.Univ {
				if rng.Intn(2) == 0 {
					deps = append(deps, x)
				}
			}
			f.AddExistential(y, deps...)
		}
		g := DependencyGraph(f)
		if IsCyclic(f) != hasCycleDFS(g) {
			t.Fatalf("iter %d: Theorem 4 criterion disagrees with DFS on %v", iter, f)
		}
	}
}

// TestIsCyclicMatchesPairwise holds the chain test of IsCyclic to the
// pairwise definition: the graph is cyclic exactly when some two dependency
// sets are incomparable. The prefixes mix chains (with repeated and empty
// sets) and perturbed chains, whose sets are often equal in size yet
// incomparable, over universals that span several bitset words.
func TestIsCyclicMatchesPairwise(t *testing.T) {
	pairwise := func(f *Formula) bool {
		for i, y := range f.Exist {
			for _, z := range f.Exist[i+1:] {
				if !f.Deps[y].SubsetOf(f.Deps[z]) && !f.Deps[z].SubsetOf(f.Deps[y]) {
					return true
				}
			}
		}
		return false
	}
	rng := rand.New(rand.NewSource(22))
	cyclic := 0
	const iters = 2000
	for iter := 0; iter < iters; iter++ {
		f := New()
		nUniv := 1 + rng.Intn(140)
		for i := 0; i < nUniv; i++ {
			f.AddUniversal(cnf.Var(i + 1))
		}
		nExist := rng.Intn(8)
		for i := 0; i < nExist; i++ {
			// The first k universals make a chain; swapping one of them for
			// a later universal keeps the size but breaks the chain.
			k := rng.Intn(nUniv + 1)
			if rng.Intn(4) == 0 {
				k = 0
			}
			deps := slices.Clone(f.Univ[:k])
			if k > 0 && k < nUniv && rng.Intn(3) == 0 {
				deps[rng.Intn(k)] = f.Univ[k+rng.Intn(nUniv-k)]
			}
			f.AddExistential(cnf.Var(nUniv+i+1), deps...)
		}
		want := pairwise(f)
		if want {
			cyclic++
		}
		if got := IsCyclic(f); got != want {
			t.Fatalf("iter %d: IsCyclic %v, pairwise definition %v on %v", iter, got, want, f)
		}
	}
	if cyclic == 0 || cyclic == iters {
		t.Fatalf("corpus not mixed: %d of %d prefixes cyclic", cyclic, iters)
	}
}

func hasCycleDFS(g *DepGraph) bool {
	state := make(map[cnf.Var]int) // 0 unvisited, 1 on stack, 2 done
	var visit func(v cnf.Var) bool
	visit = func(v cnf.Var) bool {
		state[v] = 1
		for _, w := range g.Edges[v].Vars() {
			switch state[w] {
			case 1:
				return true
			case 0:
				if visit(w) {
					return true
				}
			}
		}
		state[v] = 2
		return false
	}
	for _, v := range g.Vars {
		if state[v] == 0 && visit(v) {
			return true
		}
	}
	return false
}

func TestValidateErrors(t *testing.T) {
	f := New()
	f.AddUniversal(1)
	f.AddExistential(2, 1)
	f.Matrix.AddDimacsClause(1, -2)
	if err := f.Validate(); err != nil {
		t.Fatalf("valid formula rejected: %v", err)
	}
	// Unquantified matrix variable.
	f2 := f.Clone()
	f2.Matrix.AddDimacsClause(5)
	if f2.Validate() == nil {
		t.Fatal("unquantified variable not reported")
	}
	// Variable quantified both ways.
	f3 := f.Clone()
	f3.AddExistential(1)
	if f3.Validate() == nil {
		t.Fatal("double quantification not reported")
	}
	// Dependency on non-universal.
	f4 := New()
	f4.AddUniversal(1)
	f4.AddExistential(2, 3)
	if f4.Validate() == nil {
		t.Fatal("dependency on non-universal not reported")
	}
}

func TestDQDIMACSParse(t *testing.T) {
	in := `c PEC example
p cnf 4 4
a 1 2 0
d 3 1 0
d 4 2 0
-3 1 0
3 -1 0
-4 2 0
4 -2 0
`
	f, err := ParseDQDIMACSString(in)
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Univ) != 2 || len(f.Exist) != 2 || len(f.Matrix.Clauses) != 4 {
		t.Fatalf("parsed %v", f)
	}
	if !f.Deps[3].Equal(NewVarSet(1)) || !f.Deps[4].Equal(NewVarSet(2)) {
		t.Fatalf("deps: %v %v", f.Deps[3], f.Deps[4])
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestQDIMACSParseAsDQBF(t *testing.T) {
	in := `p cnf 4 2
a 1 0
e 2 0
a 3 0
e 4 0
1 2 0
-3 4 0
`
	f, err := ParseDQDIMACSString(in)
	if err != nil {
		t.Fatal(err)
	}
	if !f.Deps[2].Equal(NewVarSet(1)) {
		t.Fatalf("deps of 2: %v", f.Deps[2])
	}
	if !f.Deps[4].Equal(NewVarSet(1, 3)) {
		t.Fatalf("deps of 4: %v", f.Deps[4])
	}
	if IsCyclic(f) {
		t.Fatal("QDIMACS prefix is linear")
	}
}

func TestParseFreeVariables(t *testing.T) {
	f, err := ParseDQDIMACSString("p cnf 2 1\na 1 0\n1 2 0\n")
	if err != nil {
		t.Fatal(err)
	}
	if !f.IsExistential(2) || !f.Deps[2].Empty() {
		t.Fatal("free variable should become outermost existential")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"p cnf x 1\n",
		"p dnf 1 1\n",
		"a -1 0\n",
		"d 0\n",
		"1 2 0\na 1 0\n",
		"a one 0\n",
		"1 zwei 0\n",
	}
	for _, in := range cases {
		if _, err := ParseDQDIMACSString(in); err == nil {
			t.Errorf("no error for %q", in)
		}
	}
}

func TestDQDIMACSRoundTrip(t *testing.T) {
	f := paperExample1()
	// Add an existential with full dependencies to exercise the e-line path.
	f.AddExistential(5, 1, 2)
	f.Matrix.AddDimacsClause(5, 3)
	var buf bytes.Buffer
	if err := f.WriteDQDIMACS(&buf); err != nil {
		t.Fatal(err)
	}
	g, err := ParseDQDIMACS(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(g.Univ) != len(f.Univ) || len(g.Exist) != len(f.Exist) {
		t.Fatalf("prefix mismatch: %v vs %v", g, f)
	}
	for _, y := range f.Exist {
		if !g.Deps[y].Equal(f.Deps[y]) {
			t.Fatalf("deps of %d differ: %v vs %v", y, g.Deps[y], f.Deps[y])
		}
	}
	if len(g.Matrix.Clauses) != len(f.Matrix.Clauses) {
		t.Fatal("clause count mismatch")
	}
}

func TestBruteForceQBFCases(t *testing.T) {
	// ∀x ∃y(x): y↔x — SAT.
	f := New()
	f.AddUniversal(1)
	f.AddExistential(2, 1)
	f.Matrix.AddDimacsClause(-2, 1)
	f.Matrix.AddDimacsClause(2, -1)
	if sat, err := BruteForce(f); err != nil || !sat {
		t.Fatalf("got %v %v, want SAT", sat, err)
	}
	// ∀x ∃y(): y↔x — UNSAT (y cannot see x).
	g := New()
	g.AddUniversal(1)
	g.AddExistential(2)
	g.Matrix.AddDimacsClause(-2, 1)
	g.Matrix.AddDimacsClause(2, -1)
	if sat, err := BruteForce(g); err != nil || sat {
		t.Fatalf("got %v %v, want UNSAT", sat, err)
	}
}

func TestBruteForceRejectsHuge(t *testing.T) {
	f := New()
	for i := 1; i <= 20; i++ {
		f.AddUniversal(cnf.Var(i))
	}
	f.AddExistential(21, f.Univ...)
	if _, err := BruteForce(f); err == nil {
		t.Fatal("expected size rejection")
	}
}

func TestCloneIndependence(t *testing.T) {
	f := paperExample1()
	g := f.Clone()
	g.Deps[3].Add(2)
	g.Matrix.AddDimacsClause(1)
	if f.Deps[3].Has(2) {
		t.Fatal("Clone shares dependency sets")
	}
	if len(f.Matrix.Clauses) == len(g.Matrix.Clauses) {
		t.Fatal("Clone shares matrix")
	}
}

func TestFormulaString(t *testing.T) {
	if paperExample1().String() == "" {
		t.Fatal("empty String")
	}
}

func TestProjectionKey(t *testing.T) {
	deps := []cnf.Var{2, 5, 9}
	key := ProjectionKey(deps, func(v cnf.Var) bool { return v == 5 })
	if key != "010" {
		t.Fatalf("key = %q", key)
	}
	if ProjectionKey(nil, nil) != "" {
		t.Fatal("empty deps should give empty key")
	}
}
