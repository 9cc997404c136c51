package core

import (
	"errors"
	"fmt"

	"repro/internal/aig"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/faults"
	"repro/internal/pipeline"
)

// The linear phase decides the formula once its dependency graph is acyclic,
// in the style of AIGSOLVE (paper Section III-C). It eliminates the
// quantifier blocks of the linearized prefix from the innermost block
// outward: existential variables by ∃v.φ = φ[0/v] ∨ φ[1/v], universal
// variables by ∀v.φ = φ[0/v] ∧ φ[1/v], both directly on the run's AIG.
// Between eliminations it applies the unit/pure and support passes of the
// main loop and its own sweep trigger. When only the outermost existential
// block remains, a single SAT call finishes the job; when the matrix
// collapses to a constant the answer is immediate.

// qblock is one quantifier block of the linear prefix.
type qblock struct {
	exist bool
	vars  []cnf.Var
}

// linearBlocks flattens the ∀X ∃Y pairs of dqbf.Linearize into alternating
// blocks, outermost first: empty blocks are skipped and neighbours of the
// same kind merged.
func linearBlocks(prefix []dqbf.Block) []qblock {
	var blocks []qblock
	push := func(exist bool, vars []cnf.Var) {
		if len(vars) == 0 {
			return
		}
		if n := len(blocks); n > 0 && blocks[n-1].exist == exist {
			blocks[n-1].vars = append(blocks[n-1].vars, vars...)
			return
		}
		blocks = append(blocks, qblock{exist: exist, vars: append([]cnf.Var(nil), vars...)})
	}
	for _, b := range prefix {
		push(false, b.Univ)
		push(true, b.Exist)
	}
	return blocks
}

// retainQuantified drops from blocks the variables f no longer quantifies,
// then the emptied blocks.
func retainQuantified(blocks []qblock, f *dqbf.Formula) []qblock {
	univ := f.UniversalSet()
	out := blocks[:0]
	for _, b := range blocks {
		var vars []cnf.Var
		for _, v := range b.vars {
			if b.exist && f.IsExistential(v) || !b.exist && univ.Has(v) {
				vars = append(vars, v)
			}
		}
		if len(vars) > 0 {
			b.vars = vars
			out = append(out, b)
		}
	}
	return out
}

// eliminateBlocks runs the linear phase over blocks (outermost first, the
// same variables the state's formula quantifies) and returns the truth
// value. A budget stop returns the pipeline's stop error.
func (px *hqsPipeline) eliminateBlocks(st *pipeline.State, blocks []qblock) (bool, error) {
	r, sweep := px.linear, px.linearSweep
	sweep.Reset(st.G.ConeSize(st.Matrix))

	trySAT := true
	finalSAT := pipeline.NewPass("finalsat", func(st *pipeline.State) (pipeline.Result, error) {
		// Fault-injection seam: the final SAT shortcut is an optimization,
		// so a fault here is contained by falling back to plain variable
		// elimination for the remaining block.
		if ferr := st.Budget.Faults().Fire(faults.AIGFinalSAT); ferr != nil {
			trySAT = false
			return pipeline.Result{}, nil
		}
		// Outermost existential block: one SAT call, under the budget so a
		// cancellation interrupts the CDCL search itself. The check runs on
		// the run's main oracle, whose model becomes the certificate.
		sat, model, err := st.Oracle.Main().IsSatisfiable(st.Matrix, st.Budget)
		if err != nil {
			if stop := st.Stop(); stop != nil {
				return pipeline.Result{}, stop
			}
			return pipeline.Result{}, err
		}
		if sat {
			// The remaining block is outermost-existential with empty
			// dependency sets, so the model's constants are legal Skolem
			// functions.
			st.Cert.RecordModel(model)
		}
		st.Decide(sat)
		return pipeline.Result{Changed: true}, nil
	})
	blockElim := pipeline.NewPass("blockelim", func(st *pipeline.State) (pipeline.Result, error) {
		// The block list drops v with the next retainQuantified.
		inner := blocks[len(blocks)-1]
		v := pickVariable(st.G, st.Matrix, inner.vars)
		st.Prefix.Remove(v)
		if inner.exist {
			st.Cert.RecordExists(v, st.Matrix)
			st.Matrix = st.G.Exists(st.Matrix, v)
			return pipeline.Result{Changed: true, Counters: pipeline.Counters{"exist": 1}}, nil
		}
		st.Matrix = st.G.Forall(st.Matrix, v)
		return pipeline.Result{Changed: true, Counters: pipeline.Counters{"univ": 1}}, nil
	})

	for len(blocks) > 0 {
		if err := st.Stop(); err != nil {
			return false, err
		}
		// Fault-injection seam: one block-elimination step. A spurious
		// Unknown unwinds like a cancellation; an injected error surfaces
		// as a failure of the qbf pass.
		if ferr := st.Budget.Faults().Fire(faults.QBFEliminate); ferr != nil {
			if errors.Is(ferr, faults.ErrUnknown) {
				return false, pipeline.ErrCancelled
			}
			return false, fmt.Errorf("qbf: %w", ferr)
		}
		if st.Matrix.IsConst() {
			return st.Matrix == aig.True, nil
		}
		if px.s.Opt.UnitPure {
			if _, err := r.Run(pipeline.UnitPurePass{}); err != nil {
				return false, err
			}
			if st.Matrix.IsConst() {
				return st.Matrix == aig.True, nil
			}
		}
		if _, err := r.Run(pipeline.DropSupportPass{}); err != nil {
			return false, err
		}
		if blocks = retainQuantified(blocks, st.Prefix); len(blocks) == 0 {
			break
		}
		if inner := blocks[len(blocks)-1]; inner.exist && len(blocks) == 1 && trySAT {
			if _, err := r.Run(finalSAT); err != nil {
				return false, err
			}
			if trySAT {
				return st.Sat, nil
			}
			continue
		}
		if _, err := r.Run(blockElim); err != nil {
			return false, err
		}
		if _, err := r.Run(sweep); err != nil {
			return false, err
		}
	}
	if !st.Matrix.IsConst() {
		return false, fmt.Errorf("qbf: variables eliminated but matrix not constant (support %v)", st.G.Support(st.Matrix))
	}
	return st.Matrix == aig.True, nil
}

// pickVariable chooses the next variable of the innermost block: the one
// whose input node has the smallest fanout in the cone, a cheap proxy for
// the cost of duplicating the cofactors. Ties go to the earliest in vars.
func pickVariable(g *aig.Graph, m aig.Ref, vars []cnf.Var) cnf.Var {
	counts := make(map[cnf.Var]int)
	for _, r := range g.ConeRefs(m) {
		f0, f1, isAnd := g.Fanins(r)
		if !isAnd {
			continue
		}
		if v := g.InputVar(f0); v != 0 {
			counts[v]++
		}
		if v := g.InputVar(f1); v != 0 {
			counts[v]++
		}
	}
	best := vars[0]
	for _, v := range vars[1:] {
		if counts[v] < counts[best] {
			best = v
		}
	}
	return best
}
