package sat

import (
	"math/rand"
	"testing"

	"repro/internal/cnf"
)

// treeItp is a reference ItpBuilder: a plain formula tree evaluated directly.
// It checks the solver's proof bookkeeping without dragging in the AIG layer.
type treeItp struct {
	nodes []treeNode
}

type treeNode struct {
	op   byte // 'T', 'F', 'L', '&', '|'
	lit  cnf.Lit
	a, b ItpRef
}

func (t *treeItp) add(n treeNode) ItpRef {
	t.nodes = append(t.nodes, n)
	return ItpRef(len(t.nodes) - 1)
}

func (t *treeItp) True() ItpRef           { return t.add(treeNode{op: 'T'}) }
func (t *treeItp) False() ItpRef          { return t.add(treeNode{op: 'F'}) }
func (t *treeItp) Lit(l cnf.Lit) ItpRef   { return t.add(treeNode{op: 'L', lit: l}) }
func (t *treeItp) And(a, b ItpRef) ItpRef { return t.add(treeNode{op: '&', a: a, b: b}) }
func (t *treeItp) Or(a, b ItpRef) ItpRef  { return t.add(treeNode{op: '|', a: a, b: b}) }

func (t *treeItp) eval(r ItpRef, assign func(cnf.Var) bool) bool {
	n := t.nodes[r]
	switch n.op {
	case 'T':
		return true
	case 'F':
		return false
	case 'L':
		return assign(n.lit.Var()) != n.lit.Neg()
	case '&':
		return t.eval(n.a, assign) && t.eval(n.b, assign)
	default:
		return t.eval(n.a, assign) || t.eval(n.b, assign)
	}
}

// vars collects the variables the interpolant mentions, for the vocabulary
// check.
func (t *treeItp) vars(r ItpRef, out map[cnf.Var]bool) {
	n := t.nodes[r]
	switch n.op {
	case 'L':
		out[n.lit.Var()] = true
	case '&', '|':
		t.vars(n.a, out)
		t.vars(n.b, out)
	}
}

func evalClauses(cs [][]cnf.Lit, assign func(cnf.Var) bool) bool {
	for _, c := range cs {
		sat := false
		for _, l := range c {
			if assign(l.Var()) != l.Neg() {
				sat = true
				break
			}
		}
		if !sat {
			return false
		}
	}
	return true
}

// checkInterpolant refutes A ∧ B in proof mode and verifies the Craig
// properties by full truth-table enumeration over vars 1..n: A ⇒ I, I ∧ B
// unsatisfiable, and vars(I) ⊆ shared. Returns false when the pair was
// satisfiable (no interpolant to check).
func checkInterpolant(t *testing.T, a, b [][]cnf.Lit, n int, class func(cnf.Var) ItpClass) bool {
	t.Helper()
	tree := &treeItp{}
	s := New()
	s.BeginInterpolation(tree, class)
	ok := true
	for _, c := range a {
		ok = s.AddClauseTagged(false, c...) && ok
	}
	for _, c := range b {
		ok = s.AddClauseTagged(true, c...) && ok
	}
	if ok {
		if s.Solve() == Sat {
			return false
		}
	}
	itp, has := s.Interpolant()
	if !has {
		t.Fatalf("Unsat refutation but no interpolant")
	}
	iv := map[cnf.Var]bool{}
	tree.vars(itp, iv)
	for v := range iv {
		if class(v) != ItpClassShared {
			t.Fatalf("interpolant mentions non-shared variable %d", v)
		}
	}
	for bits := 0; bits < 1<<n; bits++ {
		assign := func(v cnf.Var) bool { return bits&(1<<(v-1)) != 0 }
		ev := tree.eval(itp, assign)
		if evalClauses(a, assign) && !ev {
			t.Fatalf("A holds but interpolant false at assignment %b", bits)
		}
		if ev && evalClauses(b, assign) {
			t.Fatalf("interpolant and B both hold at assignment %b", bits)
		}
	}
	return true
}

// TestInterpolantXorDefinition is the definition-extraction shape: A encodes
// y ↔ x1⊕x2 together with y, B encodes the primed copy y' ↔ x1⊕x2 with ¬y'.
// Shared vocabulary {x1, x2}; the interpolant must behave exactly like x1⊕x2.
func TestInterpolantXorDefinition(t *testing.T) {
	const (
		x1 cnf.Var = 1
		x2 cnf.Var = 2
		y  cnf.Var = 3
		yp cnf.Var = 4
	)
	xorCNF := func(out cnf.Var) [][]cnf.Lit {
		o := cnf.PosLit(out)
		a, b := cnf.PosLit(x1), cnf.PosLit(x2)
		return [][]cnf.Lit{
			{o.Not(), a, b},
			{o.Not(), a.Not(), b.Not()},
			{o, a.Not(), b},
			{o, a, b.Not()},
		}
	}
	a := append(xorCNF(y), []cnf.Lit{cnf.PosLit(y)})
	b := append(xorCNF(yp), []cnf.Lit{cnf.NegLit(yp)})
	class := func(v cnf.Var) ItpClass {
		switch v {
		case x1, x2:
			return ItpClassShared
		case y:
			return ItpClassA
		default:
			return ItpClassB
		}
	}
	if !checkInterpolant(t, a, b, 4, class) {
		t.Fatal("xor definition instance unexpectedly satisfiable")
	}

	// The interpolant of this instance is the defining function itself.
	tree := &treeItp{}
	s := New()
	s.BeginInterpolation(tree, class)
	for _, c := range a {
		s.AddClauseTagged(false, c...)
	}
	okB := true
	for _, c := range b {
		okB = s.AddClauseTagged(true, c...) && okB
	}
	if okB && s.Solve() != Unsat {
		t.Fatal("expected Unsat")
	}
	itp, _ := s.Interpolant()
	for bits := 0; bits < 4; bits++ {
		assign := func(v cnf.Var) bool { return bits&(1<<(v-1)) != 0 }
		want := assign(x1) != assign(x2)
		if got := tree.eval(itp, assign); got != want {
			t.Fatalf("interpolant(x1=%v,x2=%v) = %v, want xor = %v", assign(x1), assign(x2), got, want)
		}
	}
}

// TestInterpolantEmptyClauseAtAdd covers refutations completed during clause
// addition (level-0 propagation), before any search runs.
func TestInterpolantEmptyClauseAtAdd(t *testing.T) {
	// A: {x}, {¬x, y}; B: {¬y}. Shared: x? Take shared = {y}, A-local x.
	class := func(v cnf.Var) ItpClass {
		if v == 2 {
			return ItpClassShared
		}
		if v == 1 {
			return ItpClassA
		}
		return ItpClassB
	}
	a := [][]cnf.Lit{{cnf.PosLit(1)}, {cnf.NegLit(1), cnf.PosLit(2)}}
	b := [][]cnf.Lit{{cnf.NegLit(2)}}
	if !checkInterpolant(t, a, b, 2, class) {
		t.Fatal("instance unexpectedly satisfiable")
	}
}

// TestInterpolantRandom cross-checks the Craig properties on random A/B
// splits of random small CNFs by exhaustive enumeration.
func TestInterpolantRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	const n = 8
	refuted := 0
	for iter := 0; iter < 500; iter++ {
		// Random class per variable; random clauses respecting the partition
		// (an A-clause draws from A-local ∪ shared, a B-clause from B-local ∪
		// shared).
		classes := make([]ItpClass, n+1)
		var aVars, bVars []cnf.Var
		for v := cnf.Var(1); v <= n; v++ {
			classes[v] = ItpClass(rng.Intn(3))
			if classes[v] != ItpClassB {
				aVars = append(aVars, v)
			}
			if classes[v] != ItpClassA {
				bVars = append(bVars, v)
			}
		}
		if len(aVars) == 0 || len(bVars) == 0 {
			continue
		}
		class := func(v cnf.Var) ItpClass { return classes[v] }
		randClauses := func(pool []cnf.Var, m int) [][]cnf.Lit {
			var out [][]cnf.Lit
			for i := 0; i < m; i++ {
				k := 1 + rng.Intn(3)
				var c []cnf.Lit
				for j := 0; j < k; j++ {
					c = append(c, cnf.NewLit(pool[rng.Intn(len(pool))], rng.Intn(2) == 0))
				}
				out = append(out, c)
			}
			return out
		}
		a := randClauses(aVars, 3+rng.Intn(8))
		b := randClauses(bVars, 3+rng.Intn(8))
		if checkInterpolant(t, a, b, n, class) {
			refuted++
		}
	}
	if refuted == 0 {
		t.Fatal("no random instance was refuted; the test exercised nothing")
	}
	t.Logf("checked %d refutations", refuted)
}
