// Quickstart: parse a DQBF in DQDIMACS format, inspect its prefix, and solve
// it with both HQS (quantifier elimination) and the iDQ-style baseline.
//
// The formula is Example 1 of the paper:
//
//	∀x1 ∀x2 ∃y1(x1) ∃y2(x2) : (y1 ↔ x1) ∧ (y2 ↔ x2)
//
// with variables x1=1, x2=2, y1=3, y2=4. Its dependency graph is the 2-cycle
// of Fig. 2, so there is no equivalent QBF prefix (Theorem 3) — yet the
// formula is satisfied by the Skolem functions y1 := x1, y2 := x2.
package main

import (
	"fmt"
	"log"

	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/idq"
	"repro/internal/problem"
)

const input = `c paper example 1
p cnf 4 4
a 1 2 0
d 3 1 0
d 4 2 0
-3 1 0
3 -1 0
-4 2 0
4 -2 0
`

func main() {
	f, err := dqbf.ParseDQDIMACSString(input)
	if err != nil {
		log.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		log.Fatal(err)
	}
	fmt.Println("formula:", f)

	// Prefix analysis (Section III-A).
	fmt.Println("has equivalent QBF prefix:", dqbf.HasQBFPrefix(f))
	fmt.Println("binary dependency cycles: ", dqbf.BinaryCycles(f))
	elim, err := core.SelectEliminationSet(f, core.ElimMaxSAT)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("minimum universal elimination set (partial MaxSAT):", elim)

	// Solve with HQS.
	res := core.New(core.DefaultOptions()).Solve(problem.FromDQBF(f))
	fmt.Printf("HQS: %v (sat=%v, decided by %s, %v)\n",
		res.Status, res.Sat, res.Stats.DecidedBy, res.Stats.TotalTime)

	// Solve with the instantiation-based baseline.
	ires := idq.New(idq.Options{}).Solve(f)
	fmt.Printf("iDQ: %v (sat=%v, %d refinement iterations, %v)\n",
		ires.Status, ires.Sat, ires.Stats.Iterations, ires.Stats.TotalTime)

	if res.Sat != ires.Sat {
		log.Fatal("solvers disagree!")
	}
}
