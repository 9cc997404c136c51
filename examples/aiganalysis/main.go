// AIG analysis example: reproduces the paper's Fig. 1 / Examples 2 and 4 —
// building an And-Inverter Graph, evaluating it, and running the syntactic
// unit/pure-variable detection of Theorem 6, including the incompleteness
// the paper points out (y1 is semantically pure but the syntactic check
// misses it on this graph structure).
package main

import (
	"fmt"

	"repro/internal/aig"
	"repro/internal/cnf"
	"repro/internal/oracle"
)

func main() {
	g := aig.New()
	// Variables as in Fig. 1: y1=1, y2=2, x1=3, x2=4.
	y1, y2 := g.Input(1), g.Input(2)
	x1, x2 := g.Input(3), g.Input(4)

	// φ = (y1∨x1) ∧ (y1∨x2) ∧ (¬x1∨y2) ∧ (¬x2∨y2), with the first clause in
	// the figure's redundant form ¬(¬(¬y1∧x1) ∧ ¬y1).
	c1 := g.And(g.And(y1.Not(), x1).Not(), y1.Not()).Not()
	c2 := g.And(y1.Not(), x2.Not()).Not()
	c3 := g.And(x1, y2.Not()).Not()
	c4 := g.And(x2, y2.Not()).Not()
	phi := g.And(g.And(c1, c2), g.And(c3, c4))

	fmt.Println("graph:", g)
	fmt.Println("cone size (AND gates):", g.ConeSize(phi))
	fmt.Println("support:", keys(g.Support(phi)))

	// Example 2: the AIG computes the CNF (y1∨x1)(y1∨x2)(¬x1∨y2)(¬x2∨y2).
	check := func(vals map[cnf.Var]bool) bool {
		want := (vals[1] || vals[3]) && (vals[1] || vals[4]) &&
			(!vals[3] || vals[2]) && (!vals[4] || vals[2])
		got := g.Eval(phi, func(v cnf.Var) bool { return vals[v] })
		return got == want
	}
	ok := true
	for bits := 0; bits < 16; bits++ {
		ok = ok && check(map[cnf.Var]bool{
			1: bits&1 != 0, 2: bits&2 != 0, 3: bits&4 != 0, 4: bits&8 != 0,
		})
	}
	fmt.Println("matches the CNF of Example 2 on all 16 assignments:", ok)

	// Example 4: syntactic unit/pure detection (Theorem 6).
	names := map[cnf.Var]string{1: "y1", 2: "y2", 3: "x1", 4: "x2"}
	up := g.UnitPure(phi)
	for v := cnf.Var(1); v <= 4; v++ {
		p := up[v]
		fmt.Printf("  %-3s posUnit=%-5v negUnit=%-5v posPure=%-5v negPure=%-5v\n",
			names[v], p.PosUnit, p.NegUnit, p.PosPure, p.NegPure)
	}
	fmt.Println("→ y2 is detected positive pure (both paths have 2 inverters);")
	fmt.Println("  y1 is semantically pure too, but the syntactic check fails on")
	fmt.Println("  this structure — exactly the incompleteness Example 4 notes.")

	// Quantify and sweep, showing the elimination primitives HQS uses.
	elim := g.Exists(phi, 2) // ∃y2.φ
	fmt.Println("\n∃y2.φ cone size:", g.ConeSize(elim))
	opt := aig.DefaultSweepOptions()
	opt.Oracles = oracle.NewPool(g)
	swept, stats := g.Sweep(elim, opt)
	fmt.Printf("after SAT sweeping: %d AND gates (%d merges, %d SAT calls)\n",
		g.ConeSize(swept), stats.Merged, stats.SatCalls)
	fmt.Println("functionally unchanged:", g.Equivalent(elim, swept))
}

func keys(m map[cnf.Var]bool) []cnf.Var {
	var out []cnf.Var
	for v := cnf.Var(1); int(v) <= len(m)+4; v++ {
		if m[v] {
			out = append(out, v)
		}
	}
	return out
}
