// PEC example: partial equivalence checking of an incomplete adder — the
// workload family the paper's evaluation is built on.
//
// A 3-bit carry-lookahead adder implementation is checked against a
// ripple-carry specification after two of its per-bit cells have been
// removed (two black boxes with different input cones — exactly the
// situation QBF cannot express and DQBF can). The realizable variant is
// verified SAT; injecting a fault outside the boxes makes the design
// unrealizable, verified UNSAT.
package main

import (
	"fmt"
	"log"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/pec"
	"repro/internal/problem"
)

func main() {
	spec := circuit.RippleCarryAdder(3)
	impl := circuit.CarryLookaheadAdder(3)

	// Remove the generate/propagate cells of bits 0 and 2.
	solve("correct implementation, cells g0 and p2 unknown", spec, impl,
		[]string{"g0", "p2"})

	// Same cut, but the remaining logic has a fault (final carry OR→AND).
	faulty := impl.InjectFault(impl.Signal("c3"), circuit.FaultGateSwap, 0)
	solve("faulty carry logic, same black boxes", spec, faulty,
		[]string{"g0", "p2"})
}

func solve(title string, spec, impl *circuit.Circuit, cut []string) {
	var groups [][]int
	for _, name := range cut {
		id := impl.Signal(name)
		if id < 0 {
			log.Fatalf("no signal %q", name)
		}
		groups = append(groups, []int{id})
	}
	incomplete, boxes, err := pec.CutBoxes(impl, groups)
	if err != nil {
		log.Fatal(err)
	}
	pp := &pec.Problem{Spec: spec, Impl: incomplete, Boxes: boxes}
	formula, err := pp.ToDQBF()
	if err != nil {
		log.Fatal(err)
	}

	fmt.Printf("== %s\n", title)
	for _, b := range boxes {
		names := make([]string, len(b.Inputs))
		for i, id := range b.Inputs {
			names[i] = incomplete.Name(id)
		}
		fmt.Printf("   box %s: inputs %v\n", b.Name, names)
	}
	fmt.Printf("   DQBF: %d universals, %d existentials, %d clauses, QBF-expressible: %v\n",
		len(formula.Univ), len(formula.Exist), len(formula.Matrix.Clauses),
		dqbf.HasQBFPrefix(formula))

	res := core.New(core.DefaultOptions()).Solve(problem.FromDQBF(formula))
	verdict := "UNREALIZABLE (no black-box implementation works)"
	if res.Sat {
		verdict = "REALIZABLE (suitable black-box implementations exist)"
	}
	fmt.Printf("   HQS: %s in %v (eliminated %v, %d copies)\n\n",
		verdict, res.Stats.TotalTime, res.Stats.ElimSet, res.Stats.Pass("hqs", "thm1").Counters["copies"])
}
