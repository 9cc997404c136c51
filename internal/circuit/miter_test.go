package circuit

import (
	"bytes"
	"math/rand"
	"testing"
)

// evalAllInputs evaluates the single-output miter under every input
// assignment (free signals fixed by the free map) and returns the number of
// assignments where it is false.
func countMiterFailures(t *testing.T, m *Circuit, free map[int]bool) int {
	t.Helper()
	if len(m.Outputs) != 1 {
		t.Fatalf("miter has %d outputs, want 1", len(m.Outputs))
	}
	n := len(m.Inputs)
	if n > 16 {
		t.Fatalf("%d inputs is too many to enumerate", n)
	}
	fails := 0
	for bits := 0; bits < 1<<n; bits++ {
		in := make([]bool, n)
		for i := range in {
			in[i] = bits&(1<<i) != 0
		}
		if !m.Eval(in, free)[0] {
			fails++
		}
	}
	return fails
}

func TestMiterEquivalentAdders(t *testing.T) {
	m, err := Miter(RippleCarryAdder(2), CarryLookaheadAdder(2))
	if err != nil {
		t.Fatalf("Miter: %v", err)
	}
	if fails := countMiterFailures(t, m, nil); fails != 0 {
		t.Fatalf("equivalent adders disagree on %d assignments", fails)
	}
}

func TestMiterDetectsFault(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	impl, faultID := CarryLookaheadAdder(2).RandomFault(rng)
	m, err := Miter(RippleCarryAdder(2), impl)
	if err != nil {
		t.Fatalf("Miter: %v", err)
	}
	if fails := countMiterFailures(t, m, nil); fails == 0 {
		t.Fatalf("fault at %q not observable on any input", impl.Name(faultID))
	}
}

// TestMiterFreeSignals: the implementation has a black box; the right box
// function makes the circuits equivalent, a constant does not.
func TestMiterFreeSignals(t *testing.T) {
	spec, err := ParseBench([]byte("INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = XOR(a, b)\n"))
	if err != nil {
		t.Fatal(err)
	}
	impl, err := ParseBench([]byte("INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = XOR(f, b)\n"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Miter(spec, impl)
	if err != nil {
		t.Fatalf("Miter: %v", err)
	}
	fid := m.Signal("i_f")
	if fid < 0 || m.Gates[fid].Type != FreeGate {
		t.Fatalf("free signal not copied into the miter: id %d", fid)
	}
	aPos := -1
	for i, id := range m.Inputs {
		if m.Name(id) == "a" {
			aPos = i
		}
	}
	if aPos < 0 {
		t.Fatal("shared input a missing")
	}
	// f := a makes the halves identical.
	n := len(m.Inputs)
	for bits := 0; bits < 1<<n; bits++ {
		in := make([]bool, n)
		for i := range in {
			in[i] = bits&(1<<i) != 0
		}
		if !m.Eval(in, map[int]bool{fid: in[aPos]})[0] {
			t.Fatalf("miter false under f=a, inputs %v", in)
		}
	}
	// f := false fails whenever a is true.
	if fails := countMiterFailures(t, m, map[int]bool{fid: false}); fails == 0 {
		t.Fatal("constant box claimed equivalent")
	}
}

func TestMiterBenchRoundTrip(t *testing.T) {
	impl, err := ParseBench([]byte("INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = XOR(f, b)\n"))
	if err != nil {
		t.Fatal(err)
	}
	spec, err := ParseBench([]byte("INPUT(a)\nINPUT(b)\nOUTPUT(o)\no = XOR(a, b)\n"))
	if err != nil {
		t.Fatal(err)
	}
	m, err := Miter(spec, impl)
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := m.WriteBench(&buf); err != nil {
		t.Fatalf("WriteBench: %v", err)
	}
	m2, err := ParseBench(buf.Bytes())
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if len(m2.Inputs) != len(m.Inputs) || len(m2.Outputs) != len(m.Outputs) ||
		len(m2.FreeSignals()) != len(m.FreeSignals()) {
		t.Fatalf("round trip changed shape: %d/%d/%d inputs/outputs/frees, want %d/%d/%d",
			len(m2.Inputs), len(m2.Outputs), len(m2.FreeSignals()),
			len(m.Inputs), len(m.Outputs), len(m.FreeSignals()))
	}
}

func TestMiterErrors(t *testing.T) {
	if _, err := Miter(RippleCarryAdder(1), RippleCarryAdder(2)); err == nil {
		t.Error("input count mismatch accepted")
	}
	moreOuts := RippleCarryAdder(1).Clone()
	moreOuts.MarkOutput(moreOuts.Inputs[0])
	if _, err := Miter(moreOuts, RippleCarryAdder(1)); err == nil {
		t.Error("output count mismatch accepted")
	}
	withFree, err := ParseBench([]byte("INPUT(a)\nOUTPUT(o)\no = AND(a, f)\n"))
	if err != nil {
		t.Fatal(err)
	}
	complete, err := ParseBench([]byte("INPUT(a)\nOUTPUT(o)\no = BUFF(a)\n"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Miter(withFree, complete); err == nil {
		t.Error("incomplete specification accepted")
	}
}
