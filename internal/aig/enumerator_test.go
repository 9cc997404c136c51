package aig

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/cnf"
)

// evalFirstDiff returns, by Graph.Eval, the first assignment to vs in
// counting order (vs[j] reads bit j of the index, every other variable is
// false) under which a and b differ; differ is false when they agree under
// all 2^|vs|.
func evalFirstDiff(g *Graph, a, b Ref, vs []cnf.Var) (i uint64, differ bool) {
	for i := uint64(0); i < 1<<len(vs); i++ {
		val := func(v cnf.Var) bool {
			j := slices.Index(vs, v)
			return j >= 0 && i>>j&1 == 1
		}
		if g.Eval(a, val) != g.Eval(b, val) {
			return i, true
		}
	}
	return 0, false
}

// pairFirstDiff runs the enumerator on the pair shape with no bound on the
// joint support: it simulates the cone of the position edges lhs and rhs of
// c, whose inputs read the index bits in ascending variable order, and
// returns the first differing assignment with that joint support.
func pairFirstDiff(c *coneIndex, lhs, rhs int32) (i uint64, differ bool, joint []cnf.Var) {
	e := enumerator{c: c, block: make([]int32, len(c.fanin))}
	seen := make([]bool, len(c.fanin))
	var walk func(p int32)
	walk = func(p int32) {
		if p == 0 || seen[p] {
			return
		}
		seen[p] = true
		e.sub = append(e.sub, p)
		if c.vars[p] == 0 {
			walk(c.fanin[p][0] >> 1)
			walk(c.fanin[p][1] >> 1)
		} else {
			joint = append(joint, c.vars[p])
		}
	}
	walk(lhs >> 1)
	walk(rhs >> 1)
	slices.Sort(e.sub)
	slices.Sort(joint)
	bit := func(p int32) int { return slices.Index(joint, c.vars[p]) }
	i, differ, decided := e.firstDiff(bit, len(joint), 1<<40, lhs, rhs)
	if !decided {
		panic("pairFirstDiff: over the work bound")
	}
	return i, differ, joint
}

// enumeratorPair builds a pair over the k inputs 3..k+2 in a cone that also
// reads inputs 1 and 2, so the pair's inputs sit at ranks 2..k+1 of the cone
// but read index bits 0..k−1. shape 0 is two random functions, 1 a parity
// pair (equal), 2 a random function and its copy flipped at the last
// assignment, the only difference, found in the last chunk.
func enumeratorPair(g *Graph, rng *rand.Rand, k, shape int) (root, a, b Ref) {
	vs := make([]cnf.Var, k)
	for i := range vs {
		vs[i] = cnf.Var(i + 3)
	}
	switch shape {
	case 0:
		a, b = randomAIG(g, rng, vs, 3*k), randomAIG(g, rng, vs, 3*k)
	case 1:
		a, b = parityPair(g, vs)
	default:
		ins := make([]Ref, k)
		for i, v := range vs {
			ins[i] = g.Input(v)
		}
		a = randomAIG(g, rng, vs, 3*k)
		b = g.Xor(a, g.AndN(ins...))
	}
	root = g.Xor(g.Xor(a, b), g.And(g.Input(1), g.Input(2)))
	return root, a, b
}

// TestEnumeratorMatchesEval holds the enumerator to Graph.Eval brute force
// on random AIGs of 0 to 12 inputs, in both caller shapes:
//   - single root (Graph.Exhaustive): the verdict and the first falsifier,
//     over a shuffled variable list with one variable the cone does not read;
//   - pair: equality and the first differing assignment in counting order
//     over the joint support, called directly for every joint support, so
//     10 to 12 inputs run over several chunks and read index bits of 9 and
//     more, and through fraig.truthTable up to exactInputs, whose
//     counterexample must be that assignment.
func TestEnumeratorMatchesEval(t *testing.T) {
	rng := rand.New(rand.NewSource(34))
	pairs := 0
	for k := 0; k <= 12; k++ {
		for iter := 0; iter < 6; iter++ {
			g := New()
			vs := vars(k + 1)
			r := True.XorSign(iter%2 == 0)
			if k > 0 {
				r = randomAIG(g, rng, vs[:k], 3*k)
			}
			rng.Shuffle(len(vs), func(i, j int) { vs[i], vs[j] = vs[j], vs[i] })
			verdict, cex := g.Exhaustive(r, vs, 1<<40)
			i, differ := evalFirstDiff(g, r, True, vs)
			if want := map[bool]Verdict{false: Valid, true: Falsified}[differ]; verdict != want {
				t.Fatalf("k=%d iter %d: Exhaustive verdict %v, Eval says %v", k, iter, verdict, want)
			}
			if differ {
				for j := range vs {
					if cex[j] != (i>>j&1 == 1) {
						t.Fatalf("k=%d iter %d: first falsifier %v, Eval's is assignment %d", k, iter, cex, i)
					}
				}
			}

			if k == 0 {
				continue
			}
			root, a, b := enumeratorPair(g, rng, k, iter%3)
			if a.IsConst() || b.IsConst() || root.IsConst() {
				continue
			}
			c := g.indexCone(root)
			if !c.has(a) || !c.has(b) {
				// The XOR folded one side away.
				continue
			}
			pairs++
			x, y := c.edge(a), c.edge(b)
			got, gotDiffer, joint := pairFirstDiff(c, x, y)
			want, wantDiffer := evalFirstDiff(g, a, b, joint)
			if gotDiffer != wantDiffer || got != want {
				t.Fatalf("k=%d iter %d: pair differs %v at %d over %v, Eval says %v at %d", k, iter, gotDiffer, got, joint, wantDiffer, want)
			}
			if iter%3 == 1 && gotDiffer {
				t.Fatalf("k=%d iter %d: parity pair differs", k, iter)
			}
			if iter%3 == 2 && (!gotDiffer || got != 1<<len(joint)-1) {
				t.Fatalf("k=%d iter %d: pair differing at the last assignment differs %v at %d", k, iter, gotDiffer, got)
			}
			if len(joint) > exactInputs {
				continue
			}
			f := &fraig{g: g, c: c, cex: make([]uint64, len(c.fanin))}
			f.indexSupport()
			eq, decided := f.truthTable(sweepCand{lhs: x, rhs: y, lhsRef: a, rhsRef: b})
			if !decided || eq == wantDiffer {
				t.Fatalf("k=%d iter %d: truth table decided %v, equal %v; Eval says differ %v", k, iter, decided, eq, wantDiffer)
			}
			if !eq {
				for _, p := range c.inputs {
					j := slices.Index(joint, c.vars[p])
					if got := f.cex[p]&1 == 1; got != (j >= 0 && want>>j&1 == 1) {
						t.Fatalf("k=%d iter %d: truth-table counterexample sets %d to %v, Eval's first difference is %d over %v", k, iter, c.vars[p], got, want, joint)
					}
				}
			}
		}
	}
	if pairs < 50 {
		t.Fatalf("only %d pairs checked", pairs)
	}
}

// has reports whether the node of e is in the cone.
func (c *coneIndex) has(e Ref) bool {
	n := e.node()
	return int(n) < len(c.pos) && c.pos[n] != 0
}

// TestTruthTableAllocatesNothing: the truth-table decider reuses its
// scratch, so once a pair has been decided, deciding it again allocates
// nothing, whether the pair is equal (a parity pair) or not (a function
// and its copy flipped at one assignment, which teaches a counterexample).
func TestTruthTableAllocatesNothing(t *testing.T) {
	for shape := 1; shape <= 2; shape++ {
		g := New()
		root, a, b := enumeratorPair(g, rand.New(rand.NewSource(1)), exactInputs, shape)
		c := g.indexCone(root)
		if !c.has(a) || !c.has(b) {
			t.Fatalf("shape %d: the pair folded away", shape)
		}
		f := &fraig{g: g, c: c, cex: make([]uint64, len(c.fanin))}
		f.indexSupport()
		cd := sweepCand{lhs: c.edge(a), rhs: c.edge(b), lhsRef: a, rhsRef: b}
		if eq, decided := f.truthTable(cd); !decided || eq != (shape == 1) {
			t.Fatalf("shape %d: truth table decided %v, equal %v", shape, decided, eq)
		}
		if n := testing.AllocsPerRun(20, func() { f.truthTable(cd) }); n != 0 {
			t.Fatalf("shape %d: %v allocations per truth table", shape, n)
		}
	}
}
