package circuit

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/cnf"
	"repro/internal/sat"
)

func TestBasicGatesEval(t *testing.T) {
	c := New()
	a := c.AddInput("a")
	b := c.AddInput("b")
	checks := []struct {
		t GateType
		f func(x, y bool) bool
	}{
		{AndGate, func(x, y bool) bool { return x && y }},
		{OrGate, func(x, y bool) bool { return x || y }},
		{NandGate, func(x, y bool) bool { return !(x && y) }},
		{NorGate, func(x, y bool) bool { return !(x || y) }},
		{XorGate, func(x, y bool) bool { return x != y }},
		{XnorGate, func(x, y bool) bool { return x == y }},
	}
	for _, ck := range checks {
		id := c.AddGate("", ck.t, a, b)
		c.MarkOutput(id)
		_ = id
	}
	nid := c.AddGate("n", NotGate, a)
	c.MarkOutput(nid)
	bid := c.AddGate("bf", BufGate, b)
	c.MarkOutput(bid)
	for bits := 0; bits < 4; bits++ {
		x, y := bits&1 != 0, bits&2 != 0
		out := c.Eval([]bool{x, y}, nil)
		for i, ck := range checks {
			if out[i] != ck.f(x, y) {
				t.Errorf("%v(%v,%v) = %v", ck.t, x, y, out[i])
			}
		}
		if out[len(checks)] != !x || out[len(checks)+1] != y {
			t.Error("NOT/BUF broken")
		}
	}
}

func TestFreeSignals(t *testing.T) {
	c := New()
	a := c.AddInput("a")
	f := c.AddFree("bb_out")
	o := c.AddGate("o", AndGate, a, f)
	c.MarkOutput(o)
	if got := c.Eval([]bool{true}, map[int]bool{f: true}); !got[0] {
		t.Fatal("free=1, a=1 should give 1")
	}
	if got := c.Eval([]bool{true}, map[int]bool{f: false}); got[0] {
		t.Fatal("free=0 should give 0")
	}
	fs := c.FreeSignals()
	if len(fs) != 1 || fs[0] != f {
		t.Fatalf("FreeSignals = %v", fs)
	}
}

// checkAdder verifies n-bit adder semantics exhaustively (n small).
func checkAdder(t *testing.T, c *Circuit, n int) {
	t.Helper()
	if len(c.Inputs) != 2*n+1 || len(c.Outputs) != n+1 {
		t.Fatalf("adder pins: %d in, %d out", len(c.Inputs), len(c.Outputs))
	}
	for a := 0; a < 1<<n; a++ {
		for b := 0; b < 1<<n; b++ {
			for cin := 0; cin < 2; cin++ {
				in := make([]bool, 2*n+1)
				for i := 0; i < n; i++ {
					in[i] = a&(1<<i) != 0
					in[n+i] = b&(1<<i) != 0
				}
				in[2*n] = cin == 1
				out := c.Eval(in, nil)
				sum := a + b + cin
				for i := 0; i <= n; i++ {
					if out[i] != (sum&(1<<i) != 0) {
						t.Fatalf("adder wrong: %d+%d+%d bit %d", a, b, cin, i)
					}
				}
			}
		}
	}
}

func TestRippleCarryAdder(t *testing.T) {
	for n := 1; n <= 4; n++ {
		checkAdder(t, RippleCarryAdder(n), n)
	}
}

func TestCarryLookaheadAdder(t *testing.T) {
	for n := 1; n <= 4; n++ {
		checkAdder(t, CarryLookaheadAdder(n), n)
	}
}

func TestZ4Adder(t *testing.T) {
	checkAdder(t, Z4Adder(), 2)
}

func checkArbiter(t *testing.T, c *Circuit, n int) {
	t.Helper()
	for bits := 0; bits < 1<<n; bits++ {
		in := make([]bool, n)
		for i := 0; i < n; i++ {
			in[i] = bits&(1<<i) != 0
		}
		out := c.Eval(in, nil)
		granted := -1
		for i := 0; i < n; i++ {
			if in[i] {
				granted = i
				break
			}
		}
		for i := 0; i < n; i++ {
			want := i == granted
			if out[i] != want {
				t.Fatalf("arbiter(%0*b): grant %d = %v, want %v", n, bits, i, out[i], want)
			}
		}
	}
}

func TestArbiters(t *testing.T) {
	for n := 1; n <= 5; n++ {
		checkArbiter(t, ArbiterBitcell(n), n)
		checkArbiter(t, ArbiterLookahead(n), n)
	}
}

func TestXorChain(t *testing.T) {
	for n := 1; n <= 6; n++ {
		c := XorChain(n)
		for bits := 0; bits < 1<<n; bits++ {
			in := make([]bool, n)
			parity := false
			for i := 0; i < n; i++ {
				in[i] = bits&(1<<i) != 0
				parity = parity != in[i]
			}
			if out := c.Eval(in, nil); out[0] != parity {
				t.Fatalf("xor chain n=%d bits=%b", n, bits)
			}
		}
	}
}

func TestComparator(t *testing.T) {
	for n := 1; n <= 4; n++ {
		c := Comparator(n)
		for a := 0; a < 1<<n; a++ {
			for b := 0; b < 1<<n; b++ {
				in := make([]bool, 2*n)
				for i := 0; i < n; i++ {
					in[i] = a&(1<<i) != 0
					in[n+i] = b&(1<<i) != 0
				}
				out := c.Eval(in, nil)
				if out[0] != (a == b) || out[1] != (a > b) {
					t.Fatalf("comp(%d,%d) = %v", a, b, out)
				}
			}
		}
	}
}

func TestPriorityController(t *testing.T) {
	n := 4
	c := PriorityController(n)
	for bits := 0; bits < 1<<(2*n); bits++ {
		in := make([]bool, 2*n)
		for i := 0; i < 2*n; i++ {
			in[i] = bits&(1<<i) != 0
		}
		out := c.Eval(in, nil)
		granted := -1
		any := false
		for i := 0; i < n; i++ {
			if in[i] && in[n+i] {
				any = true
				if granted < 0 {
					granted = i
				}
			}
		}
		for i := 0; i < n; i++ {
			if out[i] != (i == granted) {
				t.Fatalf("prio grant %d wrong at %b", i, bits)
			}
		}
		if out[n] != any {
			t.Fatalf("prio any wrong at %b", bits)
		}
	}
}

// checkEncodingsAgree verifies circuit evaluation against the CNF encoding
// on random vectors.
func checkEncodingsAgree(t *testing.T, c *Circuit, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	sigVar := func(id int) cnf.Var { return cnf.Var(id + 1) }
	f := cnf.NewFormula(len(c.Gates))
	enc := c.ToCNF(f, sigVar)

	for round := 0; round < 32; round++ {
		in := make([]bool, len(c.Inputs))
		assign := map[cnf.Var]bool{}
		for i, id := range c.Inputs {
			in[i] = rng.Intn(2) == 0
			assign[sigVar(id)] = in[i]
		}
		want := c.Eval(in, nil)
		// Fix the inputs, solve, check the output literals.
		s := sat.New()
		s.EnsureVars(f.NumVars)
		for _, cl := range f.Clauses {
			s.AddClause(cl...)
		}
		for v, val := range assign {
			s.AddClause(cnf.NewLit(v, !val))
		}
		if st, _ := s.Solve(nil, nil); st != sat.Sat {
			t.Fatalf("CNF encoding unsatisfiable under input fixing (round %d)", round)
		}
		m := s.Model()
		for i, id := range c.Outputs {
			if m.Lit(enc.SigLit[id]) != want[i] {
				t.Fatalf("CNF output %d disagrees (round %d)", i, round)
			}
		}
	}
}

func TestEncodingsAgree(t *testing.T) {
	circuits := []*Circuit{
		RippleCarryAdder(3),
		CarryLookaheadAdder(3),
		ArbiterBitcell(4),
		ArbiterLookahead(4),
		XorChain(5),
		Comparator(3),
		PriorityController(3),
	}
	for i, c := range circuits {
		checkEncodingsAgree(t, c, int64(100+i))
	}
}

func TestAdderVariantsEquivalent(t *testing.T) {
	// RCA and CLA must agree exhaustively at n=3.
	n := 3
	rca := RippleCarryAdder(n)
	cla := CarryLookaheadAdder(n)
	for bits := 0; bits < 1<<(2*n+1); bits++ {
		in := make([]bool, 2*n+1)
		for i := range in {
			in[i] = bits&(1<<i) != 0
		}
		a := rca.Eval(in, nil)
		b := cla.Eval(in, nil)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("RCA/CLA differ at %b output %d", bits, i)
			}
		}
	}
}

func TestFaultChangesBehaviour(t *testing.T) {
	c := RippleCarryAdder(2)
	rng := rand.New(rand.NewSource(9))
	faulty, id := c.RandomFault(rng)
	if faulty.Gates[id].Type == c.Gates[id].Type {
		t.Fatal("fault did not change gate type")
	}
	diff := false
	for bits := 0; bits < 1<<5 && !diff; bits++ {
		in := make([]bool, 5)
		for i := range in {
			in[i] = bits&(1<<i) != 0
		}
		a := c.Eval(in, nil)
		b := faulty.Eval(in, nil)
		for i := range a {
			if a[i] != b[i] {
				diff = true
			}
		}
	}
	if !diff {
		t.Fatal("gate swap produced an equivalent circuit")
	}
}

func TestFaultInputNegation(t *testing.T) {
	c := XorChain(3)
	id := c.Signal("t2")
	faulty := c.InjectFault(id, FaultInputNegation, 0)
	// Negating an XOR input flips the output everywhere.
	for bits := 0; bits < 8; bits++ {
		in := []bool{bits&1 != 0, bits&2 != 0, bits&4 != 0}
		if c.Eval(in, nil)[0] == faulty.Eval(in, nil)[0] {
			t.Fatalf("negated xor input should flip output at %b", bits)
		}
	}
}

func TestBenchRoundTrip(t *testing.T) {
	c := RippleCarryAdder(2)
	var buf bytes.Buffer
	if err := c.WriteBench(&buf); err != nil {
		t.Fatal(err)
	}
	d, err := ParseBench(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(d.Inputs) != len(c.Inputs) || len(d.Outputs) != len(c.Outputs) {
		t.Fatalf("pins differ after round trip")
	}
	for bits := 0; bits < 1<<5; bits++ {
		in := make([]bool, 5)
		for i := range in {
			in[i] = bits&(1<<i) != 0
		}
		a := c.Eval(in, nil)
		b := d.Eval(in, nil)
		for i := range a {
			if a[i] != b[i] {
				t.Fatalf("round-trip circuit differs at %b", bits)
			}
		}
	}
}

func TestParseBenchOutOfOrderAndFree(t *testing.T) {
	src := `
# comment
INPUT(a)
INPUT(b)
OUTPUT(f)
f = AND(g, b)
g = XOR(a, bb)
`
	c, err := ParseBench([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	free := c.FreeSignals()
	if len(free) != 1 || c.Name(free[0]) != "bb" {
		t.Fatalf("free signals = %v", free)
	}
	out := c.Eval([]bool{true, true}, map[int]bool{free[0]: false})
	if !out[0] { // (1 xor 0) and 1
		t.Fatal("eval wrong")
	}
}

func TestParseBenchErrors(t *testing.T) {
	cases := []string{
		"INPUT()\n",
		"f = FOO(a)\nINPUT(a)\n",
		"f AND(a)\nINPUT(a)\n",
		"INPUT(a)\nf = AND(a)\nf = OR(a)\n",
		"INPUT(a)\nOUTPUT(zz)\nf = AND(a)\n",
		"a = BUF(b)\nb = BUF(a)\nOUTPUT(a)\n",
	}
	for _, src := range cases {
		if _, err := ParseBench([]byte(src)); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

func TestCloneIndependence(t *testing.T) {
	c := XorChain(3)
	d := c.Clone()
	d.Gates[3].Type = XnorGate
	if c.Gates[3].Type == XnorGate {
		t.Fatal("Clone shares gate storage")
	}
}

func TestGateTypeString(t *testing.T) {
	if AndGate.String() != "AND" || GateType(99).String() == "" {
		t.Fatal("GateType.String broken")
	}
}

func TestArrayMultiplier(t *testing.T) {
	for n := 1; n <= 3; n++ {
		c := ArrayMultiplier(n)
		if len(c.Outputs) != 2*n {
			t.Fatalf("n=%d: %d outputs", n, len(c.Outputs))
		}
		for a := 0; a < 1<<n; a++ {
			for b := 0; b < 1<<n; b++ {
				in := make([]bool, 2*n)
				for i := 0; i < n; i++ {
					in[i] = a&(1<<i) != 0
					in[n+i] = b&(1<<i) != 0
				}
				out := c.Eval(in, nil)
				prod := a * b
				for i := 0; i < 2*n; i++ {
					if out[i] != (prod&(1<<i) != 0) {
						t.Fatalf("n=%d: %d*%d bit %d wrong", n, a, b, i)
					}
				}
			}
		}
	}
}

func TestMuxTree(t *testing.T) {
	for k := 1; k <= 3; k++ {
		c := MuxTree(k)
		n := 1 << k
		for bits := 0; bits < 1<<(n+k); bits++ {
			in := make([]bool, n+k)
			for i := range in {
				in[i] = bits&(1<<i) != 0
			}
			selIdx := 0
			for i := 0; i < k; i++ {
				if in[n+i] {
					selIdx |= 1 << i
				}
			}
			if got := c.Eval(in, nil)[0]; got != in[selIdx] {
				t.Fatalf("k=%d bits=%b: mux = %v, want d%d=%v", k, bits, got, selIdx, in[selIdx])
			}
		}
	}
}

func TestNewGeneratorsEncodingsAgree(t *testing.T) {
	checkEncodingsAgree(t, ArrayMultiplier(2), 301)
	checkEncodingsAgree(t, MuxTree(2), 302)
}
