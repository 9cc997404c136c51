package aig

import (
	"bytes"
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"repro/internal/cnf"
)

func TestAAGRoundTripSimple(t *testing.T) {
	g := New()
	x, y := g.Input(3), g.Input(7)
	out := g.Or(g.And(x, y), g.Xor(x, y)) // = x ∨ y
	var buf bytes.Buffer
	if err := g.WriteAAG(&buf, out); err != nil {
		t.Fatal(err)
	}
	g2, outs, err := ReadAAG(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if len(outs) != 1 {
		t.Fatalf("outputs = %v", outs)
	}
	// Variables preserved via symbol table.
	for bits := 0; bits < 4; bits++ {
		a := map[cnf.Var]bool{3: bits&1 != 0, 7: bits&2 != 0}
		want := g.Eval(out, func(v cnf.Var) bool { return a[v] })
		got := g2.Eval(outs[0], func(v cnf.Var) bool { return a[v] })
		if got != want {
			t.Fatalf("round trip differs at %02b", bits)
		}
	}
}

func TestAAGRoundTripRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(77))
	vs := []cnf.Var{1, 2, 3, 4}
	for iter := 0; iter < 50; iter++ {
		g := New()
		r1 := randomAIG(g, rng, vs, 10)
		r2 := randomAIG(g, rng, vs, 6)
		var buf bytes.Buffer
		if err := g.WriteAAG(&buf, r1, r2); err != nil {
			t.Fatal(err)
		}
		g2, outs, err := ReadAAG(buf.Bytes())
		if err != nil {
			t.Fatal(err)
		}
		if len(outs) != 2 {
			t.Fatalf("outputs = %v", outs)
		}
		for bits := 0; bits < 16; bits++ {
			a := map[cnf.Var]bool{}
			for i, v := range vs {
				a[v] = bits&(1<<i) != 0
			}
			read := func(v cnf.Var) bool { return a[v] }
			if g.Eval(r1, read) != g2.Eval(outs[0], read) ||
				g.Eval(r2, read) != g2.Eval(outs[1], read) {
				t.Fatalf("iter %d: round trip differs at %04b", iter, bits)
			}
		}
	}
}

func TestAAGConstantOutputs(t *testing.T) {
	g := New()
	var buf bytes.Buffer
	if err := g.WriteAAG(&buf, True, False); err != nil {
		t.Fatal(err)
	}
	_, outs, err := ReadAAG(buf.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	if outs[0] != True || outs[1] != False {
		t.Fatalf("outs = %v", outs)
	}
}

func TestReadAAGKnownFile(t *testing.T) {
	// AND of two inputs, standard AIGER toy example.
	src := `aag 3 2 0 1 1
2
4
6
6 2 4
`
	g, outs, err := ReadAAG([]byte(src))
	if err != nil {
		t.Fatal(err)
	}
	and := outs[0]
	tests := []struct{ a, b, want bool }{
		{false, false, false}, {true, false, false}, {false, true, false}, {true, true, true},
	}
	for _, tc := range tests {
		got := g.Eval(and, func(v cnf.Var) bool {
			if v == 1 {
				return tc.a
			}
			return tc.b
		})
		if got != tc.want {
			t.Fatalf("AND(%v,%v) = %v", tc.a, tc.b, got)
		}
	}
}

func TestReadAAGErrors(t *testing.T) {
	cases := []string{
		"",
		"aig 1 1 0 0 0\n",
		"aag 1 1 0 0\n",
		"aag 1 1 1 0 0\n2\n",                  // latches unsupported
		"aag 1 1 0 0 0\n3\n",                  // odd input literal
		"aag 2 1 0 1 0\n2\n6\n",               // output exceeds maxvar
		"aag 2 1 0 1 1\n2\n4\n4 2",            // malformed AND line
		"aag 2 1 0 1 0\n2\n4\n",               // output uses undefined variable
		"aag 1 1 0 1 0\n100\n2\n",             // input literal above 2·M
		"aag 1 0 0 1 1\n2\n100 0 1\n",         // AND lhs above 2·M
		"aag 100000000000 1 0 1 0\n2\n2\n",    // M beyond the cnf.Var range
		"aag 3 1 0 1 2\n2\n4\n4 6 2\n6 2 2\n", // AND input used before its definition
		"aig 1 1 0 1 0\n2\n",                  // binary flavor
		"aag 1073741823 0 0 1 0\n0\n",         // M beyond VarLimit of the lines
		"aag 1 1 0 1 0\n",                     // header lines past the input
	}
	for _, src := range cases {
		if _, _, err := ReadAAG([]byte(src)); err == nil {
			t.Errorf("no error for %q", src)
		}
	}
}

// writeNormalized serializes a parsed file in the normalized ascii form:
// header, inputs, outputs, ands, then input/output symbols in position
// order. Parsing the output and writing it again is byte-identical.
func writeNormalized(af *File) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "aag %d %d 0 %d %d\n", af.MaxVar, len(af.Inputs), len(af.Outputs), len(af.Ands))
	for _, l := range af.Inputs {
		fmt.Fprintf(&b, "%d\n", l)
	}
	for _, l := range af.Outputs {
		fmt.Fprintf(&b, "%d\n", l)
	}
	for _, a := range af.Ands {
		fmt.Fprintf(&b, "%d %d %d\n", a[0], a[1], a[2])
	}
	writeSyms := func(tag byte, syms map[int]string) {
		pos := make([]int, 0, len(syms))
		for p := range syms {
			pos = append(pos, p)
		}
		sort.Ints(pos)
		for _, p := range pos {
			fmt.Fprintf(&b, "%c%d %s\n", tag, p, syms[p])
		}
	}
	writeSyms('i', af.InSyms)
	writeSyms('o', af.OutSyms)
	return b.Bytes()
}

// FuzzAIGERReader drives the AIGER parser (both flavors) and the graph
// builder over it with arbitrary bytes. The invariants: neither panics; any
// accepted input serializes to the normalized ascii form, which re-parses
// and re-serializes byte-identically (read/write fixpoint); and ReadAAG
// builds one output reference per declared output.
func FuzzAIGERReader(f *testing.F) {
	seeds := [][]byte{
		[]byte("aag 3 2 0 1 1\n2\n4\n6\n6 4 2\ni0 a_x\no0 out\n"),
		[]byte("aig 3 2 0 1 1\n6\n\x02\x02\ni0 a_x\no0 out\n"),
		[]byte("aag 0 0 0 0 0\n"),
		[]byte("aag 1 1 0 2 0\n2\n1\n0\n"),
		[]byte("aag 5 2 0 1 3\n2\n4\n10\n6 2 4\n8 3 5\n10 7 9\nc\nfree-form comment\n"),
		[]byte("agg 1 1 0 0 0\n2\n"),
		[]byte("aig 2 1 0 0 1\n\xff\xff\xff\xff\xff\xff\x01\x00"),
		[]byte("aag 4 2 0 1 1\n2\n4\n6\n6 2 4\ni0 v3\ni1 v1\nc\n"),
		[]byte("aig 1073741823 1073741823 0 0 0"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		af, err := ParseAIGER(data)
		if err != nil {
			return // rejected cleanly
		}
		norm := writeNormalized(af)
		af2, err := ParseAIGER(norm)
		if err != nil {
			t.Fatalf("normalized form rejected: %v\ninput: %q\nnormalized: %q", err, data, norm)
		}
		if again := writeNormalized(af2); !bytes.Equal(norm, again) {
			t.Fatalf("read/write fixpoint violated:\nfirst:  %q\nsecond: %q", norm, again)
		}
		if _, outs, err := ReadAAG(norm); err == nil && len(outs) != len(af.Outputs) {
			t.Fatalf("ReadAAG built %d outputs for %d declared", len(outs), len(af.Outputs))
		}
	})
}
