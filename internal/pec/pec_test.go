package pec

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/idq"
	"repro/internal/problem"
)

// cutSingle cuts the named gates, one box per gate.
func cutSingle(t *testing.T, c *circuit.Circuit, names ...string) (*circuit.Circuit, []BlackBox) {
	t.Helper()
	var groups [][]int
	for _, n := range names {
		id := c.Signal(n)
		if id < 0 {
			t.Fatalf("no signal %q", n)
		}
		groups = append(groups, []int{id})
	}
	impl, boxes, err := CutBoxes(c, groups)
	if err != nil {
		t.Fatal(err)
	}
	return impl, boxes
}

func TestCutBoxesStructure(t *testing.T) {
	c := circuit.XorChain(4) // t1 = x0⊕x1, t2 = t1⊕x2, t3 = t2⊕x3
	impl, boxes := cutSingle(t, c, "t2")
	if len(boxes) != 1 {
		t.Fatalf("boxes = %v", boxes)
	}
	b := boxes[0]
	if len(b.Inputs) != 2 || len(b.Outputs) != 1 {
		t.Fatalf("box = %+v", b)
	}
	free := impl.FreeSignals()
	if len(free) != 1 || impl.Name(free[0]) != "t2" {
		t.Fatalf("free = %v", free)
	}
	// Problem with spec == original must be realizable.
	p := &Problem{Spec: c, Impl: impl, Boxes: boxes}
	ok, err := BruteForceRealizable(p)
	if err != nil {
		t.Fatal(err)
	}
	if !ok {
		t.Fatal("cut of the original circuit must be realizable")
	}
}

func TestCutBoxesErrors(t *testing.T) {
	c := circuit.XorChain(3)
	if _, _, err := CutBoxes(c, [][]int{{}}); err == nil {
		t.Error("empty group accepted")
	}
	if _, _, err := CutBoxes(c, [][]int{{c.Inputs[0]}}); err == nil {
		t.Error("cutting an input accepted")
	}
	id := c.Signal("t1")
	if _, _, err := CutBoxes(c, [][]int{{id}, {id}}); err == nil {
		t.Error("duplicate gate accepted")
	}
	if _, _, err := CutBoxes(c, [][]int{{9999}}); err == nil {
		t.Error("unknown gate accepted")
	}
}

func TestValidateErrors(t *testing.T) {
	spec := circuit.XorChain(3)
	impl, boxes := cutSingle(t, spec, "t1")
	good := &Problem{Spec: spec, Impl: impl, Boxes: boxes}
	if err := good.Validate(); err != nil {
		t.Fatalf("valid problem rejected: %v", err)
	}
	// Mismatched pins.
	bad := &Problem{Spec: circuit.XorChain(4), Impl: impl, Boxes: boxes}
	if bad.Validate() == nil {
		t.Error("pin mismatch accepted")
	}
	// Unowned free signal.
	bad2 := &Problem{Spec: spec, Impl: impl, Boxes: nil}
	if bad2.Validate() == nil {
		t.Error("unowned free signal accepted")
	}
	// Box output is not free.
	bad3 := &Problem{Spec: spec, Impl: impl, Boxes: []BlackBox{{Name: "b", Outputs: []int{impl.Signal("t2")}}}}
	if bad3.Validate() == nil {
		t.Error("non-free box output accepted")
	}
}

// decide runs the DQBF encoding through brute force.
func decide(t *testing.T, p *Problem) bool {
	t.Helper()
	f, err := p.ToDQBF()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
	res := core.New(core.DefaultOptions()).Solve(problem.FromDQBF(f))
	if res.Status != core.Solved {
		t.Fatalf("HQS status %v", res.Status)
	}
	ires := idq.New(idq.Options{}).Solve(f)
	if ires.Status != idq.Solved || ires.Sat != res.Sat {
		t.Fatalf("iDQ disagrees: %v/%v vs HQS %v", ires.Status, ires.Sat, res.Sat)
	}
	return res.Sat
}

func TestRealizableSingleBox(t *testing.T) {
	spec := circuit.XorChain(3)
	impl, boxes := cutSingle(t, spec, "t2")
	p := &Problem{Spec: spec, Impl: impl, Boxes: boxes}
	if !decide(t, p) {
		t.Fatal("single-box cut of the spec itself must be realizable (SAT)")
	}
}

func TestRealizableInversionOutsideBox(t *testing.T) {
	// A polarity fault outside the box on an XOR chain IS repairable: the
	// box can absorb the inversion (XOR↔XNOR swaps propagate).
	spec := circuit.XorChain(4)
	faulty := spec.InjectFault(spec.Signal("t3"), circuit.FaultGateSwap, 0) // t3 XOR→XNOR
	impl, boxes := cutSingle(t, faulty, "t1")
	p := &Problem{Spec: spec, Impl: impl, Boxes: boxes}
	want, err := BruteForceRealizable(p)
	if err != nil {
		t.Fatal(err)
	}
	if !want {
		t.Fatal("inversion on an XOR chain must be repairable by the box")
	}
	if !decide(t, p) {
		t.Fatal("DQBF encoding misses the repair")
	}
}

func TestUnrealizableWrongSpec(t *testing.T) {
	// Replace the last XOR by an AND outside the box: out = t2∧x3 cannot be
	// turned into parity by any box implementation of t1 — at x3=0 the
	// output is constant 0 while the spec still varies.
	spec := circuit.XorChain(4)
	broken := spec.Clone()
	broken.Gates[broken.Signal("t3")].Type = circuit.AndGate
	impl, boxes := cutSingle(t, broken, "t1")
	p := &Problem{Spec: spec, Impl: impl, Boxes: boxes}
	want, err := BruteForceRealizable(p)
	if err != nil {
		t.Fatal(err)
	}
	if want {
		t.Fatal("test construction broken: instance should be unrealizable")
	}
	if decide(t, p) {
		t.Fatal("DQBF encoding says realizable for an unrealizable instance")
	}
}

func TestRealizableFaultInsideBox(t *testing.T) {
	// Fault inside the cut region: the box can reimplement the correct
	// function, so the instance is realizable.
	spec := circuit.XorChain(4)
	faulty := spec.InjectFault(spec.Signal("t2"), circuit.FaultGateSwap, 0)
	impl, boxes := cutSingle(t, faulty, "t2")
	p := &Problem{Spec: spec, Impl: impl, Boxes: boxes}
	if !decide(t, p) {
		t.Fatal("fault hidden inside the box must be realizable")
	}
}

func TestTwoBoxesNonLinearPrefix(t *testing.T) {
	// Two boxes with disjoint input cones give incomparable dependency
	// sets — the hallmark DQBF case (no equivalent QBF prefix).
	spec := circuit.XorChain(3)
	impl, boxes := cutSingle(t, spec, "t1", "t2")
	p := &Problem{Spec: spec, Impl: impl, Boxes: boxes}
	f, err := p.ToDQBF()
	if err != nil {
		t.Fatal(err)
	}
	if !dqbf.IsCyclic(f) {
		t.Fatal("two independent boxes must yield a cyclic dependency graph")
	}
	if !decide(t, p) {
		t.Fatal("cutting two spec gates must stay realizable")
	}
}

func TestTwoBoxesUnrealizable(t *testing.T) {
	spec := circuit.RippleCarryAdder(2)
	faulty := spec.InjectFault(spec.Signal("c2"), circuit.FaultGateSwap, 0) // final OR→AND
	impl, boxes := cutSingle(t, faulty, "p0", "p1")
	p := &Problem{Spec: spec, Impl: impl, Boxes: boxes}
	want, err := BruteForceRealizable(p)
	if err != nil {
		t.Fatal(err)
	}
	got := decide(t, p)
	if got != want {
		t.Fatalf("DQBF %v, brute force %v", got, want)
	}
	if got {
		t.Fatal("carry fault outside boxes should be unrealizable")
	}
}

func TestEncodingMatchesBruteForceRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(606))
	specs := []func() *circuit.Circuit{
		func() *circuit.Circuit { return circuit.XorChain(3) },
		func() *circuit.Circuit { return circuit.ArbiterBitcell(3) },
		func() *circuit.Circuit { return circuit.Comparator(2) },
	}
	for iter := 0; iter < 12; iter++ {
		spec := specs[iter%len(specs)]()
		work := spec
		if iter%2 == 1 {
			work, _ = spec.RandomFault(rng)
		}
		// Cut one or two random non-input gates as single-gate boxes.
		var candidates []int
		for id, g := range work.Gates {
			switch g.Type {
			case circuit.InputGate, circuit.FreeGate, circuit.Const0, circuit.Const1:
			default:
				candidates = append(candidates, id)
			}
		}
		nBoxes := 1 + rng.Intn(2)
		perm := rng.Perm(len(candidates))
		var groups [][]int
		for _, pi := range perm[:min(nBoxes, len(candidates))] {
			groups = append(groups, []int{candidates[pi]})
		}
		impl, boxes, err := CutBoxes(work, groups)
		if err != nil {
			t.Fatal(err)
		}
		p := &Problem{Spec: spec, Impl: impl, Boxes: boxes}
		want, err := BruteForceRealizable(p)
		if err != nil {
			t.Skipf("iter %d beyond brute force: %v", iter, err)
		}
		if got := decide(t, p); got != want {
			t.Fatalf("iter %d: DQBF %v, brute force %v", iter, got, want)
		}
	}
}

func TestDependencySetsPerBox(t *testing.T) {
	spec := circuit.RippleCarryAdder(2)
	impl, boxes := cutSingle(t, spec, "g1_0", "g1_1")
	p := &Problem{Spec: spec, Impl: impl, Boxes: boxes}
	f, err := p.ToDQBF()
	if err != nil {
		t.Fatal(err)
	}
	// Exactly two "real" existentials with dependency-set size 2 (the box
	// inputs a_i, b_i); all Tseitin auxiliaries depend on every universal.
	full := f.UniversalSet()
	small := 0
	for _, y := range f.Exist {
		if f.Deps[y].Equal(full) {
			continue
		}
		if f.Deps[y].Len() != 2 {
			t.Fatalf("box output with %d deps", f.Deps[y].Len())
		}
		small++
	}
	if small != 2 {
		t.Fatalf("found %d box outputs, want 2", small)
	}
}
