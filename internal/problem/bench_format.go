package problem

import (
	"fmt"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/dqbf"
)

// fromCircuit encodes a combinational netlist as a Problem: every primary
// output is constrained true, primary inputs become universal variables (in
// declaration order), free (undriven) signals become existential variables
// depending on all inputs — "is there a driver function making the outputs
// hold for every input?" — and the Tseitin auxiliaries of internal gates
// are existentials over all inputs as well. A complete circuit (no free
// signals) therefore asks whether its outputs are tautologies.
//
// The encoding is linear (every dependency set is the full universal set),
// so the resulting problem is KindQBF.
func fromCircuit(c *circuit.Circuit) (*Problem, error) {
	f := dqbf.New()
	m := f.Matrix
	sig := make(map[int]cnf.Var, len(c.Inputs))
	for _, id := range c.Inputs {
		v := m.NewVar()
		sig[id] = v
		f.AddUniversal(v)
	}
	frees := c.FreeSignals()
	for _, id := range frees {
		sig[id] = m.NewVar()
	}
	enc := c.ToCNF(m, func(id int) cnf.Var {
		v, ok := sig[id]
		if !ok {
			panic(fmt.Sprintf("problem: signal %d has no variable", id))
		}
		return v
	})
	univ := append([]cnf.Var(nil), f.Univ...)
	for _, id := range frees {
		f.AddExistential(sig[id], univ...)
	}
	for _, v := range enc.GateVars {
		f.AddExistential(v, univ...)
	}
	for _, out := range c.Outputs {
		m.AddClause(enc.SigLit[out])
	}
	p := FromDQBF(f)
	p.Format = FormatBENCH
	if err := p.Validate(); err != nil {
		return nil, err
	}
	return p, nil
}
