package aig

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/cnf"
)

// fuzzVars is the input alphabet of the fuzz-built AIGs: small enough that
// exhaustive evaluation over all 2^4 assignments stays cheap.
var fuzzVars = []cnf.Var{1, 2, 3, 4}

// buildFuzzAIG interprets data as a stack program over the variables vs (at
// most 32 of them): each byte either pushes an input/constant or combines
// stack entries with AND/OR/XOR/NOT/ITE. It returns the final stack top (or
// False for the empty program) — a deterministic way to grow structurally
// diverse AIGs from fuzzer-mutated bytes.
func buildFuzzAIG(g *Graph, vs []cnf.Var, data []byte) Ref {
	stack := []Ref{False}
	pop := func() Ref {
		r := stack[len(stack)-1]
		if len(stack) > 1 {
			stack = stack[:len(stack)-1]
		}
		return r
	}
	for _, b := range data {
		switch b % 8 {
		case 0, 1:
			stack = append(stack, g.Input(vs[int(b/8)%len(vs)]))
		case 2:
			stack = append(stack, False.XorSign(b&8 != 0))
		case 3:
			stack = append(stack, pop().Not())
		case 4:
			stack = append(stack, g.And(pop(), pop()))
		case 5:
			stack = append(stack, g.Or(pop(), pop()))
		case 6:
			stack = append(stack, g.Xor(pop(), pop()))
		case 7:
			stack = append(stack, g.Ite(pop(), pop(), pop()))
		}
	}
	return stack[len(stack)-1]
}

// evalAll evaluates r under every assignment of fuzzVars, returning a truth
// vector indexed by the assignment bits.
func evalAll(g *Graph, r Ref) []bool {
	out := make([]bool, 1<<len(fuzzVars))
	for bits := range out {
		bits := bits
		out[bits] = g.Eval(r, func(v cnf.Var) bool {
			for i, w := range fuzzVars {
				if w == v {
					return bits&(1<<i) != 0
				}
			}
			return false
		})
	}
	return out
}

// FuzzAIGCompose checks the semantic identities the certificate extractor
// leans on, over fuzz-built AIGs: cofactoring removes the variable from the
// support, the Shannon expansion reconstructs the function, and Compose
// agrees with substitute-then-evaluate.
func FuzzAIGCompose(f *testing.F) {
	f.Add([]byte{}, byte(0))
	f.Add([]byte{0, 8, 4}, byte(1))
	f.Add([]byte{0, 3, 8, 6, 16, 5, 24, 7}, byte(2))
	f.Add([]byte{1, 9, 17, 25, 4, 4, 4}, byte(3))
	f.Add([]byte{2, 10, 3, 7, 0, 6}, byte(0))
	f.Fuzz(func(t *testing.T, data []byte, varSel byte) {
		if len(data) > 256 {
			return
		}
		g := New()
		split := len(data) / 2
		r := buildFuzzAIG(g, fuzzVars, data[:split])
		sub := buildFuzzAIG(g, fuzzVars, data[split:])
		v := fuzzVars[int(varSel)%len(fuzzVars)]

		// Cofactor removes the variable from the support.
		hi := g.Cofactor(r, v, true)
		lo := g.Cofactor(r, v, false)
		if g.Support(hi)[v] || g.Support(lo)[v] {
			t.Fatalf("cofactor on %d left it in the support (hi %v, lo %v)", v, g.Support(hi), g.Support(lo))
		}

		// Shannon expansion: r ≡ ite(v, r|v=1, r|v=0).
		shannon := g.Ite(g.Input(v), hi, lo)
		want := evalAll(g, r)
		if got := evalAll(g, shannon); !eqVec(got, want) {
			t.Fatalf("Shannon expansion on %d changed the function", v)
		}

		// Compose agrees with substitute-then-evaluate.
		composed := g.Compose(r, map[cnf.Var]Ref{v: sub})
		if g.Support(composed)[v] && !g.Support(sub)[v] {
			t.Fatalf("compose left %d in the support without the substitute using it", v)
		}
		subVec := evalAll(g, sub)
		gotVec := evalAll(g, composed)
		for bits := range gotVec {
			// Evaluate r with v replaced by sub's value under the same
			// assignment.
			vi := varIndex(v)
			adjusted := bits &^ (1 << vi)
			if subVec[bits] {
				adjusted |= 1 << vi
			}
			if gotVec[bits] != want[adjusted] {
				t.Fatalf("compose mismatch at assignment %b: got %v, direct %v", bits, gotVec[bits], want[adjusted])
			}
		}
	})
}

func eqVec(a, b []bool) bool {
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func varIndex(v cnf.Var) int {
	for i, w := range fuzzVars {
		if w == v {
			return i
		}
	}
	return -1
}

// FuzzSweep sweeps fuzz-built AIGs: the function must be unchanged, and a
// cone of at most exactInputs inputs must be decided by hashing or truth
// tables, with no SAT call. On a twin graph, the seam that sends every
// candidate to SAT must merge as many pairs into a cone of the same size,
// and every merge must have exactly one decider.
func FuzzSweep(f *testing.F) {
	f.Add([]byte{0, 8, 4, 0, 8, 5, 6})
	f.Add([]byte{0, 8, 16, 24, 7, 0, 3, 8, 3, 4, 16, 24, 6, 5})
	f.Add([]byte{1, 9, 6, 1, 9, 3, 4, 9, 1, 3, 4, 5, 17, 25, 6, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		g := New()
		r := buildFuzzAIG(g, fuzzVars, data)
		want := evalAll(g, r)
		opt := testSweepOptions(g, DefaultSweepOptions())
		swept, st := g.Sweep(r, opt)
		if got := evalAll(g, swept); !eqVec(got, want) {
			t.Fatalf("sweep changed the function of %v", r)
		}
		if k := len(g.Support(r)); k <= exactInputs && st.SatCalls != 0 {
			t.Fatalf("%d-input cone: %d SAT calls", k, st.SatCalls)
		}
		checkDeciders(t, "default", st, opt)

		gs := New()
		rs := buildFuzzAIG(gs, fuzzVars, data)
		sopt := testSweepOptions(gs, SweepOptions{})
		satSwept, sst := gs.sweep(rs, sopt, true)
		if got := evalAll(gs, satSwept); !eqVec(got, want) {
			t.Fatalf("forced SAT sweep changed the function of %v", rs)
		}
		checkDeciders(t, "forced SAT", sst, sopt)
		if sst.Merged != st.Merged || gs.ConeSize(satSwept) != g.ConeSize(swept) {
			t.Fatalf("SAT merged %d into a cone of %d, the default sweep %d into %d",
				sst.Merged, gs.ConeSize(satSwept), st.Merged, g.ConeSize(swept))
		}
	})
}

// FuzzExhaustive holds the enumerator to Graph.Eval on two fuzz-built AIGs
// over 12 inputs, a and b, in both its caller shapes: Graph.Exhaustive on a,
// over the variables in descending order, must return Eval's verdict and
// first falsifier, and the pair (a, b) must differ first at Eval's first
// differing assignment over their joint support, or nowhere. A joint support
// of more than 9 inputs runs over several chunks.
func FuzzExhaustive(f *testing.F) {
	f.Add([]byte{0, 8, 4, 0, 8, 5, 6})
	// andOf pushes x1..xn and ANDs them together.
	andOf := func(n int) []byte {
		var prog []byte
		for i := range n {
			prog = append(prog, byte(8*i))
		}
		return append(prog, bytes.Repeat([]byte{4}, n-1)...)
	}
	// ¬(x1 ∧ … ∧ x12) is false only at the last assignment; x1 ∧ … ∧ x12 and
	// x1 ∧ … ∧ x11 ∧ ¬x12 differ first at assignment 2^11−1. Both answers
	// lie in the last chunks.
	notAll := append(andOf(12), 3)
	f.Add(append(notAll, bytes.Repeat([]byte{0}, len(notAll))...))
	f.Add(append(append([]byte{2}, andOf(12)...), append(andOf(11), 88, 3, 4)...))
	vs := vars(12)
	desc := slices.Clone(vs)
	slices.Reverse(desc)
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 256 {
			return
		}
		g := New()
		split := len(data) / 2
		a := buildFuzzAIG(g, vs, data[:split])
		b := buildFuzzAIG(g, vs, data[split:])

		verdict, cex := g.Exhaustive(a, desc, 1<<40)
		i, differ := evalFirstDiff(g, a, True, desc)
		if differ != (verdict == Falsified) || verdict == Undecided {
			t.Fatalf("Exhaustive verdict %v, Eval falsifies: %v", verdict, differ)
		}
		for j := range cex {
			if cex[j] != (i>>j&1 == 1) {
				t.Fatalf("first falsifier %v, Eval's is assignment %d", cex, i)
			}
		}

		root := g.Or(g.And(a, g.Input(13)), g.And(b, g.Input(14)))
		if a.IsConst() || b.IsConst() || root.IsConst() {
			return
		}
		c := g.indexCone(root)
		if !c.has(a) || !c.has(b) {
			return
		}
		got, gotDiffer, joint := pairFirstDiff(c, c.edge(a), c.edge(b))
		want, wantDiffer := evalFirstDiff(g, a, b, joint)
		if gotDiffer != wantDiffer || got != want {
			t.Fatalf("pair differs %v at %d over %v, Eval says %v at %d", gotDiffer, got, joint, wantDiffer, want)
		}
	})
}
