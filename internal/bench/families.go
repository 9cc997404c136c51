// Package bench generates the PEC benchmark families of the paper's
// evaluation (Section IV) and runs HQS and the iDQ baseline over them,
// reproducing Table I (per-family solved counts, SAT/UNSAT split,
// timeout/memout split, accumulated times on commonly solved instances) and
// Figure 4 (the per-instance runtime scatter with TO/MO rails), plus the
// in-text measurements (fraction solved under a second, MaxSAT selection
// time, unit/pure check share).
//
// The original 1820 instances are PEC problems over adders, two arbiter
// implementations from Dally & Harting, XOR chains, and three ISCAS-85
// circuits (z4ml, comp, C432). Those netlists are not redistributable here;
// the generators below recreate the structure that drives solver behaviour —
// multiple black boxes with incomparable dependency sets, realizable and
// unrealizable variants, growing circuit widths — at laptop scale.
package bench

import (
	"bytes"
	"fmt"
	"math/rand"
	"slices"
	"strings"

	"repro/internal/circuit"
	"repro/internal/dqbf"
	"repro/internal/pec"
	"repro/internal/problem"
)

// Family identifies one benchmark family of Table I.
type Family string

// The seven families of the paper's Table I.
const (
	FamilyAdder     Family = "adder"
	FamilyBitcell   Family = "bitcell"
	FamilyLookahead Family = "lookahead"
	FamilyPecXor    Family = "pec_xor"
	FamilyZ4        Family = "z4"
	FamilyComp      Family = "comp"
	FamilyC432      Family = "C432"
)

// Extension families beyond the paper's seven: the "notoriously hard to
// verify" multiplier structure the introduction motivates removing into
// black boxes, a multiplexer tree, and a circuit-ingestion family whose
// instances are round-tripped through a BENCH netlist miter and the unified
// problem reader — exercising the full ingestion path end to end rather
// than constructing formulas in memory.
const (
	FamilyMult    Family = "mult"
	FamilyMux     Family = "mux"
	FamilyCircuit Family = "circuit"
)

// Families lists the paper's families in Table I order.
var Families = []Family{
	FamilyAdder, FamilyBitcell, FamilyLookahead, FamilyPecXor,
	FamilyZ4, FamilyComp, FamilyC432,
}

// ExtensionFamilies lists additional families not in the paper's benchmark
// set (reported separately from the Table I reproduction).
var ExtensionFamilies = []Family{FamilyMult, FamilyMux, FamilyCircuit}

// Instance is one generated PEC benchmark instance.
type Instance struct {
	Family  Family
	Name    string
	Formula *dqbf.Formula
	// Boxes and Universals summarize the prefix shape for reporting.
	Boxes      int
	Universals int
}

// GenOptions control instance generation.
type GenOptions struct {
	// Count is the number of instances per family.
	Count int
	// Seed makes generation deterministic.
	Seed int64
	// MaxWidth bounds the circuit size parameter (bits/ports/channels).
	MaxWidth int
}

// DefaultGenOptions generate a laptop-scale benchmark set.
func DefaultGenOptions() GenOptions {
	return GenOptions{Count: 20, Seed: 20150309, MaxWidth: 4}
}

// Generate builds the instances of one family. An unknown family is an
// error naming it and listing the known ones.
func Generate(f Family, opt GenOptions) ([]Instance, error) {
	known := append(append([]Family(nil), Families...), ExtensionFamilies...)
	if !slices.Contains(known, f) {
		names := make([]string, len(known))
		for i, k := range known {
			names[i] = string(k)
		}
		return nil, fmt.Errorf("bench: unknown family %q (known: %s)", f, strings.Join(names, ", "))
	}
	rng := rand.New(rand.NewSource(opt.Seed + int64(len(f))*7919))
	var out []Instance
	for i := 0; i < opt.Count; i++ {
		inst, err := generateOne(f, i, rng, opt)
		if err != nil {
			return nil, fmt.Errorf("bench: %s instance %d: %w", f, i, err)
		}
		out = append(out, inst)
	}
	return out, nil
}

// GenerateAll builds every family.
func GenerateAll(opt GenOptions) (map[Family][]Instance, error) {
	out := make(map[Family][]Instance)
	for _, f := range Families {
		insts, err := Generate(f, opt)
		if err != nil {
			return nil, err
		}
		out[f] = insts
	}
	return out, nil
}

// specImpl builds the family's specification circuit and the (possibly
// faulty) complete implementation the boxes will be cut from, plus the name
// patterns of the gates eligible for cutting. For faulty instances the
// faulted gate's name is returned so that boxes avoid covering (and thereby
// repairing) it.
func specImpl(f Family, width int, faulty bool, rng *rand.Rand) (spec, impl *circuit.Circuit, cuttable []string, faultName string) {
	switch f {
	case FamilyAdder:
		spec = circuit.RippleCarryAdder(width)
		impl = circuit.CarryLookaheadAdder(width)
		for i := 0; i < width; i++ {
			cuttable = append(cuttable, fmt.Sprintf("p%d", i), fmt.Sprintf("g%d", i))
		}
	case FamilyBitcell:
		spec = circuit.ArbiterLookahead(width + 1)
		impl = circuit.ArbiterBitcell(width + 1)
		for i := 0; i < width; i++ {
			cuttable = append(cuttable, fmt.Sprintf("g%d", i+1))
		}
	case FamilyLookahead:
		spec = circuit.ArbiterBitcell(width + 1)
		impl = circuit.ArbiterLookahead(width + 1)
		for i := 0; i < width; i++ {
			cuttable = append(cuttable, fmt.Sprintf("g%d", i+1))
		}
	case FamilyPecXor:
		spec = circuit.XorChain(width + 2)
		impl = spec.Clone()
		for i := 1; i < width+2; i++ {
			cuttable = append(cuttable, fmt.Sprintf("t%d", i))
		}
	case FamilyZ4:
		spec = circuit.Z4Adder()
		impl = circuit.CarryLookaheadAdder(2)
		cuttable = []string{"p0", "p1", "g0", "g1"}
	case FamilyComp:
		spec = circuit.Comparator(width)
		impl = spec.Clone()
		for i := 0; i < width; i++ {
			cuttable = append(cuttable, fmt.Sprintf("eq%d", i), fmt.Sprintf("gtb%d", i))
		}
	case FamilyC432:
		spec = circuit.PriorityController(width)
		impl = spec.Clone()
		for i := 0; i < width; i++ {
			cuttable = append(cuttable, fmt.Sprintf("act%d", i))
		}
	case FamilyMult:
		w := width
		if w > 3 {
			w = 3 // quadratic cell count: keep instances laptop-scale
		}
		spec = circuit.ArrayMultiplier(w)
		impl = spec.Clone()
		for i := 0; i < w; i++ {
			for j := 0; j < w; j++ {
				cuttable = append(cuttable, fmt.Sprintf("pp%d_%d", i, j))
			}
		}
	case FamilyMux:
		k := 2
		if width > 3 {
			k = 3
		}
		spec = circuit.MuxTree(k)
		impl = spec.Clone()
		for i := 0; i < k; i++ {
			cuttable = append(cuttable, fmt.Sprintf("m%d_0", i))
		}
	}
	if faulty {
		var faultID int
		impl, faultID = impl.RandomFault(rng)
		faultName = impl.Name(faultID)
	}
	return spec, impl, cuttable, faultName
}

// generateOne builds the i-th instance of a family: a width in
// [2, MaxWidth], one or more single-gate black boxes at pseudo-random
// cuttable positions, and — for roughly three quarters of the instances, as
// in the heavily UNSAT-dominated original set — a fault injected outside
// the boxes making the design unrealizable.
func generateOne(f Family, i int, rng *rand.Rand, opt GenOptions) (Instance, error) {
	maxW := opt.MaxWidth
	if maxW < 2 {
		maxW = 2
	}
	width := 2 + rng.Intn(maxW-1)
	if f == FamilyZ4 {
		width = 2 // z4ml is a fixed-size circuit
	}
	faulty := i%4 != 0 // ~75% unrealizable candidates
	if f == FamilyCircuit {
		return generateCircuit(i, width, faulty, rng)
	}
	spec, impl, cuttable, faultName := specImpl(f, width, faulty, rng)

	nBoxes := 1 + rng.Intn(2)
	if nBoxes > len(cuttable) {
		nBoxes = len(cuttable)
	}
	perm := rng.Perm(len(cuttable))
	var groups [][]int
	for _, pi := range perm {
		if len(groups) == nBoxes {
			break
		}
		if cuttable[pi] == faultName {
			continue // do not let the box absorb the injected fault
		}
		id := impl.Signal(cuttable[pi])
		if id < 0 {
			continue // gate vanished (e.g. replaced by fault retopo)
		}
		switch impl.Gates[id].Type {
		case circuit.InputGate, circuit.FreeGate:
			continue
		}
		groups = append(groups, []int{id})
	}
	if len(groups) == 0 {
		return Instance{}, fmt.Errorf("no cuttable gate found")
	}
	cut, boxes, err := pec.CutBoxes(impl, groups)
	if err != nil {
		return Instance{}, err
	}
	p := &pec.Problem{Spec: spec, Impl: cut, Boxes: boxes}
	formula, err := p.ToDQBF()
	if err != nil {
		return Instance{}, err
	}
	return Instance{
		Family:     f,
		Name:       fmt.Sprintf("%s_w%d_b%d_%03d", f, width, len(boxes), i),
		Formula:    formula,
		Boxes:      len(boxes),
		Universals: len(formula.Univ),
	}, nil
}

// generateCircuit builds one instance of the circuit-ingestion family: an
// adder PEC problem expressed as a BENCH netlist miter (ripple-carry spec
// vs. carry-lookahead implementation with cut black boxes) and ingested
// through the unified problem reader — the same path a BENCH file POSTed to
// hqsd takes — instead of assembling the DQBF in memory.
func generateCircuit(i, width int, faulty bool, rng *rand.Rand) (Instance, error) {
	spec := circuit.RippleCarryAdder(width)
	impl := circuit.CarryLookaheadAdder(width)
	var faultName string
	if faulty {
		var faultID int
		impl, faultID = impl.RandomFault(rng)
		faultName = impl.Name(faultID)
	}
	var cuttable []string
	for j := 0; j < width; j++ {
		cuttable = append(cuttable, fmt.Sprintf("p%d", j), fmt.Sprintf("g%d", j))
	}
	nBoxes := 1 + rng.Intn(2)
	var groups [][]int
	for _, pi := range rng.Perm(len(cuttable)) {
		if len(groups) == nBoxes {
			break
		}
		if cuttable[pi] == faultName {
			continue
		}
		id := impl.Signal(cuttable[pi])
		if id < 0 {
			continue
		}
		switch impl.Gates[id].Type {
		case circuit.InputGate, circuit.FreeGate:
			continue
		}
		groups = append(groups, []int{id})
	}
	if len(groups) == 0 {
		return Instance{}, fmt.Errorf("no cuttable gate found")
	}
	cut, boxes, err := pec.CutBoxes(impl, groups)
	if err != nil {
		return Instance{}, err
	}
	miter, err := circuit.Miter(spec, cut)
	if err != nil {
		return Instance{}, err
	}
	var buf bytes.Buffer
	if err := miter.WriteBench(&buf); err != nil {
		return Instance{}, err
	}
	p, err := problem.ParseBytes(buf.Bytes(), problem.FormatBENCH)
	if err != nil {
		return Instance{}, err
	}
	return Instance{
		Family:     FamilyCircuit,
		Name:       fmt.Sprintf("%s_w%d_b%d_%03d", FamilyCircuit, width, len(boxes), i),
		Formula:    p.Formula,
		Boxes:      len(boxes),
		Universals: len(p.Formula.Univ),
	}, nil
}
