package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"hash/fnv"
	"math/rand"
	"sort"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/cube"
	"repro/internal/dqbf"
	"repro/internal/pec"
	"repro/internal/problem"
)

// Spec names one generated PEC instance: the family's specification and
// implementation circuits at Width, Boxes single-gate black boxes cut at
// pseudo-random positions drawn from (Family, Width, Boxes, Index), and —
// for three quarters of the draws — a gate-swap fault outside the boxes.
// Widened instances give every existential all universals as dependencies
// (a QBF the cluster cube-splits).
type Spec struct {
	Family  string `json:"family"`
	Width   int    `json:"width"`
	Boxes   int    `json:"boxes"`
	Index   int    `json:"index"`
	Widened bool   `json:"widened,omitempty"`
}

// Instance is one generated input with everything the benchmark needs to
// send it and to judge the answer.
type Instance struct {
	Spec
	// Format is the wire format of Text ("dqdimacs" or "bench").
	Format  problem.Format
	Text    []byte
	Formula *dqbf.Formula
	// PEC is the circuit problem behind the formula, kept for the
	// brute-force referee and for simulating CLI Skolem tables.
	PEC *pec.Problem
}

// ID is the instance's manifest name.
func (s Spec) ID() string {
	id := fmt.Sprintf("%s_w%d_b%d_%03d", s.Family, s.Width, s.Boxes, s.Index)
	if s.Widened {
		id += "_wide"
	}
	return id
}

// Digest is the SHA-256 of the instance bytes as sent.
func (in *Instance) Digest() string { return digest(in.Text) }

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:])
}

// specImpl builds a family's specification and complete implementation
// circuits plus the names of the gates a box may replace. It mirrors the
// paper's PEC families so that the benchmark's inputs are defined here,
// next to the benchmark, rather than by the test-suite generators.
func specImpl(family string, width int) (spec, impl *circuit.Circuit, cuttable []string, err error) {
	switch family {
	case "adder", "circuit":
		spec = circuit.RippleCarryAdder(width)
		impl = circuit.CarryLookaheadAdder(width)
		for i := 0; i < width; i++ {
			cuttable = append(cuttable, fmt.Sprintf("p%d", i), fmt.Sprintf("g%d", i))
		}
	case "bitcell":
		spec = circuit.ArbiterLookahead(width + 1)
		impl = circuit.ArbiterBitcell(width + 1)
		for i := 0; i < width; i++ {
			cuttable = append(cuttable, fmt.Sprintf("g%d", i+1))
		}
	case "lookahead":
		spec = circuit.ArbiterBitcell(width + 1)
		impl = circuit.ArbiterLookahead(width + 1)
		for i := 0; i < width; i++ {
			cuttable = append(cuttable, fmt.Sprintf("g%d", i+1))
		}
	case "pec_xor":
		spec = circuit.XorChain(width + 2)
		impl = spec.Clone()
		for i := 1; i < width+2; i++ {
			cuttable = append(cuttable, fmt.Sprintf("t%d", i))
		}
	case "comp":
		spec = circuit.Comparator(width)
		impl = spec.Clone()
		for i := 0; i < width; i++ {
			cuttable = append(cuttable, fmt.Sprintf("eq%d", i), fmt.Sprintf("gtb%d", i))
		}
	case "C432":
		spec = circuit.PriorityController(width)
		impl = spec.Clone()
		for i := 0; i < width; i++ {
			cuttable = append(cuttable, fmt.Sprintf("act%d", i))
		}
	case "mult":
		spec = circuit.ArrayMultiplier(width)
		impl = spec.Clone()
		for i := 0; i < width; i++ {
			for j := 0; j < width; j++ {
				cuttable = append(cuttable, fmt.Sprintf("pp%d_%d", i, j))
			}
		}
	default:
		return nil, nil, nil, fmt.Errorf("unknown family %q", family)
	}
	return spec, impl, cuttable, nil
}

// specRNG derives the deterministic random stream of one Spec.
func specRNG(s Spec) *rand.Rand {
	h := fnv.New64a()
	fmt.Fprintf(h, "%s/%d/%d/%d", s.Family, s.Width, s.Boxes, s.Index)
	return rand.New(rand.NewSource(int64(h.Sum64() >> 1)))
}

// Generate builds the instance a Spec names. The "circuit" family is sent
// as its BENCH miter netlist (whose free signals see every input); every
// other family as the DQDIMACS encoding of the PEC problem.
func Generate(s Spec) (*Instance, error) {
	rng := specRNG(s)
	spec, impl, cuttable, err := specImpl(s.Family, s.Width)
	if err != nil {
		return nil, err
	}
	faultName := ""
	if rng.Intn(4) != 0 {
		var id int
		impl, id = impl.RandomFault(rng)
		faultName = impl.Name(id)
	}
	var groups [][]int
	for _, pi := range rng.Perm(len(cuttable)) {
		if len(groups) == s.Boxes {
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
	if len(groups) != s.Boxes {
		return nil, fmt.Errorf("%s: found %d of %d cuttable gates", s.ID(), len(groups), s.Boxes)
	}
	cut, boxes, err := pec.CutBoxes(impl, groups)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", s.ID(), err)
	}
	inst := &Instance{Spec: s, PEC: &pec.Problem{Spec: spec, Impl: cut, Boxes: boxes}}
	if s.Family == "circuit" {
		miter, err := circuit.Miter(spec, cut)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.ID(), err)
		}
		var buf bytes.Buffer
		if err := miter.WriteBench(&buf); err != nil {
			return nil, err
		}
		p, err := problem.ParseBytes(buf.Bytes(), problem.FormatBENCH)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.ID(), err)
		}
		inst.Format, inst.Text, inst.Formula = problem.FormatBENCH, buf.Bytes(), p.Formula
	} else {
		f, err := inst.PEC.ToDQBF()
		if err != nil {
			return nil, fmt.Errorf("%s: %w", s.ID(), err)
		}
		inst.Formula = f
	}
	if s.Widened {
		inst.Formula = widen(inst.Formula)
		inst.Format, inst.Text = "", nil
	}
	if inst.Text == nil {
		inst.Format, inst.Text = problem.FormatDQDIMACS, dqdimacs(inst.Formula)
	}
	return inst, nil
}

// widen returns f with every dependency set replaced by all universals.
func widen(f *dqbf.Formula) *dqbf.Formula {
	g := f.Clone()
	for _, y := range g.Exist {
		g.Deps[y] = dqbf.NewVarSet(g.Univ...)
	}
	return g
}

// disjointBoxes reports whether no universal is shared by every dependency
// set, so the coordinator forwards the formula whole instead of cubing it.
func disjointBoxes(f *dqbf.Formula) bool { return len(cube.Eligible(f)) == 0 }

func dqdimacs(f *dqbf.Formula) []byte {
	var buf bytes.Buffer
	if err := f.WriteDQDIMACS(&buf); err != nil {
		panic(err) // writing to a bytes.Buffer cannot fail
	}
	return buf.Bytes()
}

// Renumber returns a copy of f with its variables renamed by a permutation
// drawn from rng. The prefix keeps its order, so the solver faces the same
// problem under new names; the canonical hash, and with it every cache and
// store key, changes. This is how the benchmark sends many distinct
// instances of a fixed difficulty without a pool of thousands of files.
func Renumber(f *dqbf.Formula, rng *rand.Rand) *dqbf.Formula {
	n := f.Matrix.NumVars
	perm := rng.Perm(n)
	mapVar := func(v cnf.Var) cnf.Var { return cnf.Var(perm[int(v)-1] + 1) }
	g := dqbf.New()
	for _, x := range f.Univ {
		g.AddUniversal(mapVar(x))
	}
	for _, y := range f.Exist {
		deps := f.Deps[y].Vars()
		mapped := make([]cnf.Var, len(deps))
		for i, d := range deps {
			mapped[i] = mapVar(d)
		}
		sort.Slice(mapped, func(i, j int) bool { return mapped[i] < mapped[j] })
		g.AddExistential(mapVar(y), mapped...)
	}
	if g.Matrix.NumVars < n {
		g.Matrix.NumVars = n
	}
	for _, c := range f.Matrix.Clauses {
		lits := make([]cnf.Lit, len(c))
		for i, l := range c {
			lits[i] = cnf.NewLit(mapVar(l.Var()), l.Neg())
		}
		g.Matrix.AddClause(lits...)
	}
	return g
}
