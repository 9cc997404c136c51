package core

import (
	"errors"
	"fmt"

	"repro/internal/aig"
	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/maxsat"
	"repro/internal/oracle"
	"repro/internal/pipeline"
)

// The HQS-specific pass names, registered at init so fault-spec validation
// (hqsd -faults pipeline.thm1:...) accepts them before any solve runs. The
// passes both phases share (unitpure, dropsupport, sweep) are registered by
// the pipeline package.
func init() {
	for _, name := range []string{"blockelim", "finalsat", "preprocess", "build", "elimset", "thm2", "thm1", "qbf"} {
		pipeline.RegisterPass(name)
	}
}

// hqsPipeline holds the driver-side context the HQS passes close over: the
// solver options, the shared pipeline state, the working formula behind the
// state's prefix, the detected gates, the elimination-set queue, the
// fresh-variable counter for Theorem-1 copies, and the linear phase's runner
// and sweep pass.
type hqsPipeline struct {
	s     *Solver
	st    *pipeline.State
	work  *dqbf.Formula
	sweep *pipeline.SweepPass

	gates   []Gate
	elimSet []cnf.Var
	elim    []cnf.Var
	nextVar cnf.Var
	// elimExhausted is set by the thm1 pass when the dependency graph is
	// still cyclic but no further universal can be selected; the driver then
	// leaves the main loop for the linear phase.
	elimExhausted bool

	linear      *pipeline.Runner
	linearSweep *pipeline.SweepPass
}

// selectElim runs the elimination-set selection, mapping a budget stop onto
// the pipeline's stop error (ErrTimeout on the deadline, ErrCancelled
// otherwise). Successive selections share the oracle pool's guarded MaxSAT
// backend (the dependency-cycle structure persists as the formula shrinks,
// so learned clauses carry over between strengthening steps).
func (px *hqsPipeline) selectElim() ([]cnf.Var, error) {
	elim, err := selectEliminationSet(px.work, px.s.Opt.Strategy, px.s.Opt.Budget, px.st.Oracle.MaxSATBackend())
	if err != nil {
		if errors.Is(err, maxsat.ErrBudget) {
			if errors.Is(err, budget.ErrDeadline) {
				return nil, pipeline.ErrTimeout
			}
			return nil, pipeline.ErrCancelled
		}
		return nil, fmt.Errorf("elimination-set selection: %w", err)
	}
	return OrderByCopyCost(px.work, elim), nil
}

// preprocess is step 1 (CNF-level preprocessing and gate detection).
func (px *hqsPipeline) preprocess() pipeline.Pass {
	return pipeline.NewPass("preprocess", func(st *pipeline.State) (pipeline.Result, error) {
		pr, err := preprocessCert(px.work, px.s.Opt.DetectGates, st.Cert)
		if err != nil {
			return pipeline.Result{}, err
		}
		px.gates = pr.Gates
		if pr.Decided {
			st.Decide(pr.Value)
		}
		c := pipeline.Counters{
			"units":    int64(pr.Units),
			"univred":  int64(pr.UnivReductions),
			"equiv":    int64(pr.Equivalences),
			"subsumed": int64(pr.Subsumed),
			"strength": int64(pr.Strengthened),
			"gates":    int64(len(pr.Gates)),
		}
		return pipeline.Result{Changed: true, Counters: c}, nil
	})
}

// build is step 2: AIG construction from the preprocessed CNF, composing
// detected gate functions directly.
func (px *hqsPipeline) build() pipeline.Pass {
	return pipeline.NewPass("build", func(st *pipeline.State) (pipeline.Result, error) {
		g := aig.New()
		g.NodeLimit = px.s.Opt.Budget.NodeCap()
		st.G = g
		// The oracle pool is born with the graph: it owns every SAT
		// instance of this run (the MaxSAT backend and final check, which
		// live for the solve, and each sweep's oracle, which lives for
		// that sweep) and dies with the solve.
		st.Oracle = oracle.NewPool(g)
		st.Matrix = buildMatrix(g, px.work.Matrix, px.gates)
		px.sweep.Reset(g.ConeSize(st.Matrix))
		return pipeline.Result{Changed: true, Counters: pipeline.Counters{"nodes": int64(g.NumNodes())}}, nil
	})
}

// elimset is step 3: minimum universal elimination-set selection (MaxSAT
// over the binary dependency-set cycles) ordered by copy cost.
func (px *hqsPipeline) elimset() pipeline.Pass {
	return pipeline.NewPass("elimset", func(st *pipeline.State) (pipeline.Result, error) {
		elim, err := px.selectElim()
		if err != nil {
			return pipeline.Result{}, err
		}
		if px.s.Opt.ReverseElimOrder {
			for i, j := 0, len(elim)-1; i < j; i, j = i+1, j-1 {
				elim[i], elim[j] = elim[j], elim[i]
			}
		}
		px.elim, px.elimSet = elim, elim
		px.nextVar = cnf.Var(px.work.Matrix.NumVars + 1)
		return pipeline.Result{
			Changed:  len(elim) > 0,
			Counters: pipeline.Counters{"selected": int64(len(elim))},
		}, nil
	})
}

// thm2 eliminates every existential variable whose dependency set equals the
// current universal set (Theorem 2).
func (px *hqsPipeline) thm2() pipeline.Pass {
	return pipeline.NewPass("thm2", func(st *pipeline.State) (pipeline.Result, error) {
		var res pipeline.Result
		univSet := px.work.UniversalSet()
		for _, y := range append([]cnf.Var(nil), px.work.Exist...) {
			if !px.work.Deps[y].Equal(univSet) {
				continue
			}
			if err := st.Stop(); err != nil {
				return res, err
			}
			st.Cert.RecordExists(y, st.Matrix)
			st.Matrix = st.G.Exists(st.Matrix, y)
			st.Prefix.Remove(y)
			res.Changed = true
			res.Counters = res.Counters.Add(pipeline.Counters{"exist": 1})
			if st.Matrix.IsConst() {
				return res, nil
			}
		}
		return res, nil
	})
}

// thm1 eliminates the next selected universal variable (Theorem 1),
// recomputing the elimination set when the precomputed one is exhausted but
// cycles remain (possible when unit/pure removed selected variables in a way
// that left other cycles). elimExhausted signals the driver that no further
// universal can be selected.
func (px *hqsPipeline) thm1() pipeline.Pass {
	return pipeline.NewPass("thm1", func(st *pipeline.State) (pipeline.Result, error) {
		x := cnf.Var(0)
		for x == 0 {
			for len(px.elim) > 0 {
				cand := px.elim[0]
				px.elim = px.elim[1:]
				if px.work.IsUniversal(cand) {
					x = cand
					break
				}
			}
			if x != 0 {
				break
			}
			more, err := px.selectElim()
			if err != nil {
				return pipeline.Result{}, err
			}
			if len(more) == 0 {
				px.elimExhausted = true
				return pipeline.Result{}, nil
			}
			px.elim = more
		}
		m, copies := px.s.eliminateUniversal(st.G, px.work, st.Matrix, x, &px.nextVar, st.Cert)
		st.Matrix = m
		return pipeline.Result{
			Changed:  true,
			Counters: pipeline.Counters{"univ": 1, "copies": int64(copies)},
		}, nil
	})
}

// qbf is step 5: linearization (Theorem 3) and the linear phase on the same
// state, whose passes run on a runner of their own (stage "qbf"). A node
// limit unwinds straight to Solve's recover; stop errors pass through.
func (px *hqsPipeline) qbf() pipeline.Pass {
	return pipeline.NewPass("qbf", func(st *pipeline.State) (pipeline.Result, error) {
		blocks := dqbf.Linearize(px.work)
		sat, err := px.eliminateBlocks(st, linearBlocks(blocks))
		if err != nil {
			return pipeline.Result{}, err
		}
		st.Decide(sat)
		return pipeline.Result{Changed: true, Counters: pipeline.Counters{"blocks": int64(len(blocks))}}, nil
	})
}
