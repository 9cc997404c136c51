// Package qbf implements an AIG-based QBF solver in the style of AIGSOLVE,
// the back end HQS hands its formula to once the DQBF prefix has been made
// linear (paper Section III-C).
//
// The solver eliminates quantifier blocks from the innermost block outward:
// existential variables by ∃v.φ = φ[0/v] ∨ φ[1/v], universal variables by
// ∀v.φ = φ[0/v] ∧ φ[1/v], both directly on the AIG. The elimination runs on
// the shared pass pipeline (internal/pipeline): between eliminations it
// applies the same unit/pure pass (Theorems 5/6) and SAT-sweeping pass
// (FRAIG reduction) as the HQS main loop, each execution budget-polled,
// fault-injectable, and emitting one structured trace event. When only the
// outermost existential block remains, a single SAT call finishes the job;
// when the matrix collapses to a constant the answer is immediate.
package qbf

import (
	"errors"
	"fmt"

	"repro/internal/aig"
	"repro/internal/budget"
	"repro/internal/cert"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/faults"
	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// Pass names contributed by this package, registered at init so fault-spec
// validation knows them before any solve runs.
func init() {
	pipeline.RegisterPass("blockelim")
	pipeline.RegisterPass("finalsat")
}

// Options configure the solver.
type Options struct {
	// UnitPure enables the syntactic unit/pure elimination between variable
	// eliminations.
	UnitPure bool
	// SweepThreshold triggers a SAT sweep whenever the matrix cone has grown
	// by this many AND nodes since the last sweep; 0 disables sweeping.
	SweepThreshold int
	// SweepOptions configure individual sweeps.
	SweepOptions aig.SweepOptions
	// FinalSAT finishes an outermost purely-existential block with one SAT
	// call instead of eliminating variable by variable.
	FinalSAT bool
	// Budget, when non-nil, aborts the solve when stopped: Solve returns
	// pipeline.ErrTimeout on its deadline, pipeline.ErrCancelled on
	// cancellation or cap exhaustion. It is also threaded into sweeps and
	// the final SAT call so a cancellation lands mid-oracle, not only
	// between eliminations.
	Budget *budget.Budget
	// Trace, when non-nil, receives one structured event per executed
	// pipeline pass.
	Trace trace.Sink
	// Cert, when non-nil, records Skolem reconstruction steps: existential
	// block eliminations and the final SAT model (universal eliminations and
	// constant collapses need no step; see internal/cert).
	Cert *cert.Builder
	// Oracle is the persistent incremental SAT pool shared with the HQS
	// pipeline (both operate on the same graph): sweeping and the final SAT
	// check query it. New creates one over the graph when it is nil.
	Oracle *oracle.Pool
}

// DefaultOptions mirror the configuration used in the paper's experiments.
func DefaultOptions() Options {
	return Options{
		UnitPure:       true,
		SweepThreshold: 512,
		SweepOptions:   aig.DefaultSweepOptions(),
		FinalSAT:       true,
	}
}

// Stats collects elimination counters.
type Stats struct {
	ExistElims  int
	UnivElims   int
	UnitElims   int
	PureElims   int
	Sweeps      int
	Sweep       aig.SweepStats // aggregated over all sweeps
	FinalSATRun bool
}

// Solver decides QBF instances whose matrix lives in an AIG.
type Solver struct {
	G    *aig.Graph
	Opt  Options
	Stat Stats
}

// New returns a solver over graph g with the given options.
func New(g *aig.Graph, opt Options) *Solver {
	if opt.Oracle == nil {
		opt.Oracle = oracle.NewPool(g)
	}
	return &Solver{G: g, Opt: opt}
}

// block pairs a quantifier kind with its variables.
type block struct {
	exist bool
	vars  []cnf.Var
}

// blockPrefix adapts the linear block list to pipeline.Prefix, so the
// shared unit/pure and support passes see the same quantifier semantics the
// HQS pipeline's formula-backed prefix provides.
type blockPrefix struct{ blocks []block }

func (p *blockPrefix) lookup(v cnf.Var) (exist, ok bool) {
	for bi := range p.blocks {
		for _, w := range p.blocks[bi].vars {
			if w == v {
				return p.blocks[bi].exist, true
			}
		}
	}
	return false, false
}

// IsExistential implements pipeline.Prefix.
func (p *blockPrefix) IsExistential(v cnf.Var) bool {
	exist, ok := p.lookup(v)
	return ok && exist
}

// IsUniversal implements pipeline.Prefix.
func (p *blockPrefix) IsUniversal(v cnf.Var) bool {
	exist, ok := p.lookup(v)
	return ok && !exist
}

// Remove implements pipeline.Prefix. Emptied blocks stay in place; the
// driver pops them when they become innermost.
func (p *blockPrefix) Remove(v cnf.Var) {
	for bi := range p.blocks {
		b := &p.blocks[bi]
		for i, w := range b.vars {
			if w == v {
				b.vars = append(b.vars[:i], b.vars[i+1:]...)
				return
			}
		}
	}
}

// RetainSupport implements pipeline.Prefix.
func (p *blockPrefix) RetainSupport(support map[cnf.Var]bool) int {
	before := 0
	for _, b := range p.blocks {
		before += len(b.vars)
	}
	p.blocks = filterBlocks(p.blocks, support)
	after := 0
	for _, b := range p.blocks {
		after += len(b.vars)
	}
	return before - after
}

// Size implements pipeline.Prefix.
func (p *blockPrefix) Size() (univ, exist int) {
	for _, b := range p.blocks {
		if b.exist {
			exist += len(b.vars)
		} else {
			univ += len(b.vars)
		}
	}
	return univ, exist
}

// Solve decides the QBF given by the linear prefix (outermost block first,
// as produced by dqbf.Linearize) and the matrix. It returns the truth value.
// A budget stop returns the pipeline's stop error (pipeline.ErrTimeout or
// pipeline.ErrCancelled); an aig.ErrNodeLimit panic from the graph
// propagates as an error.
func (s *Solver) Solve(prefix []dqbf.Block, matrix aig.Ref) (result bool, err error) {
	defer func() {
		if r := recover(); r != nil {
			if lim, ok := r.(aig.ErrNodeLimit); ok {
				err = lim
				return
			}
			panic(r)
		}
	}()

	// Flatten into alternating quantifier blocks, innermost last.
	bp := &blockPrefix{}
	push := func(exist bool, vars []cnf.Var) {
		if len(vars) == 0 {
			return
		}
		if n := len(bp.blocks); n > 0 && bp.blocks[n-1].exist == exist {
			bp.blocks[n-1].vars = append(bp.blocks[n-1].vars, vars...)
			return
		}
		bp.blocks = append(bp.blocks, block{exist: exist, vars: append([]cnf.Var(nil), vars...)})
	}
	for _, b := range prefix {
		push(false, b.Univ)
		push(true, b.Exist)
	}

	st := &pipeline.State{
		G:      s.G,
		Matrix: matrix,
		Prefix: bp,
		Budget: s.Opt.Budget,
		Cert:   s.Opt.Cert,
		Oracle: s.Opt.Oracle,
	}
	r := pipeline.NewRunner(st, s.Opt.Trace, "qbf")
	sweep := pipeline.NewSweepPass(s.Opt.SweepThreshold, s.Opt.SweepOptions)
	sweep.Reset(s.G.ConeSize(matrix))
	defer func() {
		up := r.Total("unitpure")
		s.Stat.UnitElims += int(up.Counters["units"])
		s.Stat.PureElims += int(up.Counters["pures"])
		n, sst := sweep.Stats()
		s.Stat.Sweeps += n
		s.Stat.Sweep.Add(sst)
	}()

	finalSAT := s.Opt.FinalSAT
	fellBack := false
	finalSATPass := pipeline.NewPass("finalsat", func(st *pipeline.State) (pipeline.Result, error) {
		// Fault-injection seam: the final SAT shortcut is an optimization,
		// so a fault here is contained by falling back to plain variable
		// elimination for the remaining block.
		if ferr := s.Opt.Budget.Faults().Fire(faults.AIGFinalSAT); ferr != nil {
			fellBack = true
			return pipeline.Result{}, nil
		}
		// Outermost existential block: one SAT call, under the budget so a
		// cancellation interrupts the CDCL search itself. The check reuses
		// the run's incremental solver — the matrix cone is usually already
		// largely encoded from earlier sweeps.
		s.Stat.FinalSATRun = true
		sat, model, err := s.Opt.Oracle.Main().IsSatisfiable(st.Matrix, s.Opt.Budget)
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
		st.Decide(sat, "finalsat")
		return pipeline.Result{Changed: true}, nil
	})
	blockElim := pipeline.NewPass("blockelim", func(st *pipeline.State) (pipeline.Result, error) {
		inner := &bp.blocks[len(bp.blocks)-1]
		v := s.pickVariable(st.Matrix, inner.vars)
		inner.vars = removeVar(inner.vars, v)
		c := pipeline.Counters{}
		if inner.exist {
			st.Cert.RecordExists(v, st.Matrix)
			st.Matrix = s.G.Exists(st.Matrix, v)
			s.Stat.ExistElims++
			c["exist"] = 1
		} else {
			st.Matrix = s.G.Forall(st.Matrix, v)
			s.Stat.UnivElims++
			c["univ"] = 1
		}
		return pipeline.Result{Changed: true, Counters: c}, nil
	})

	for len(bp.blocks) > 0 {
		if err := st.Stop(); err != nil {
			return false, err
		}
		// Fault-injection seam: one block-elimination step. A spurious
		// Unknown unwinds like a cancellation; an injected error surfaces
		// as a back-end failure.
		if ferr := s.Opt.Budget.Faults().Fire(faults.QBFEliminate); ferr != nil {
			if errors.Is(ferr, faults.ErrUnknown) {
				return false, pipeline.ErrCancelled
			}
			return false, fmt.Errorf("qbf: %w", ferr)
		}
		if st.Matrix.IsConst() {
			return st.Matrix == aig.True, nil
		}
		if s.Opt.UnitPure {
			if _, err := r.Run(pipeline.UnitPurePass{}); err != nil {
				return false, err
			}
			if st.Matrix.IsConst() {
				return st.Matrix == aig.True, nil
			}
		}
		// Drop variables that left the support.
		if _, err := r.Run(pipeline.DropSupportPass{}); err != nil {
			return false, err
		}
		if len(bp.blocks) == 0 {
			break
		}
		inner := &bp.blocks[len(bp.blocks)-1]
		if len(inner.vars) == 0 {
			bp.blocks = bp.blocks[:len(bp.blocks)-1]
			continue
		}
		if inner.exist && len(bp.blocks) == 1 && finalSAT {
			if _, err := r.Run(finalSATPass); err != nil {
				return false, err
			}
			if fellBack {
				finalSAT = false
				fellBack = false
				continue
			}
			return st.Sat, nil
		}
		if _, err := r.Run(blockElim); err != nil {
			return false, err
		}
		if _, err := r.Run(sweep); err != nil {
			return false, err
		}
	}
	if !st.Matrix.IsConst() {
		return false, fmt.Errorf("qbf: variables eliminated but matrix not constant (support %v)", s.G.Support(st.Matrix))
	}
	return st.Matrix == aig.True, nil
}

// pickVariable chooses the next variable of the innermost block: the one
// whose input node has the smallest fanout in the cone, a cheap proxy for
// the cost of duplicating the cofactors.
func (s *Solver) pickVariable(m aig.Ref, vars []cnf.Var) cnf.Var {
	counts := s.fanoutCounts(m)
	best := vars[0]
	bestC := counts[best]
	for _, v := range vars[1:] {
		if c := counts[v]; c < bestC {
			best, bestC = v, c
		}
	}
	return best
}

// fanoutCounts counts, for each input variable, how many AND nodes in the
// cone reference it directly.
func (s *Solver) fanoutCounts(m aig.Ref) map[cnf.Var]int {
	counts := make(map[cnf.Var]int)
	for _, r := range s.G.ConeRefs(m) {
		f0, f1, isAnd := s.G.Fanins(r)
		if !isAnd {
			continue
		}
		if v := s.G.InputVar(f0); v != 0 {
			counts[v]++
		}
		if v := s.G.InputVar(f1); v != 0 {
			counts[v]++
		}
	}
	return counts
}

func filterBlocks(blocks []block, support map[cnf.Var]bool) []block {
	out := blocks[:0]
	for _, b := range blocks {
		var vars []cnf.Var
		for _, v := range b.vars {
			if support[v] {
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

func removeVar(vars []cnf.Var, v cnf.Var) []cnf.Var {
	for i, w := range vars {
		if w == v {
			return append(vars[:i], vars[i+1:]...)
		}
	}
	return vars
}
