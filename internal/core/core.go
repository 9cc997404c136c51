// Package core implements HQS, the paper's contribution: an elimination-based
// DQBF solver that turns a dependency quantified Boolean formula into an
// equivalent QBF by eliminating a minimum set of universal variables, then
// decides that QBF by AIGSolve-style block elimination on the same AIG.
//
// The solver is assembled from named passes on the shared pass pipeline
// (internal/pipeline), following Fig. 3 of the paper:
//
//  1. "preprocess" — CNF-level unit propagation, DQBF universal reduction,
//     equivalent-variable substitution, Tseitin gate detection
//     (preprocess.go, gates.go).
//  2. "build" — AIG construction from the preprocessed CNF, composing
//     detected gate functions directly so their auxiliary variables never
//     need explicit elimination (build.go).
//  3. "elimset" — selection of a minimum universal elimination set via
//     partial MaxSAT over the binary dependency-set cycles (elimset.go;
//     Equations 1 and 2), ordered by the number of existential copies each
//     elimination costs.
//  4. The main loop: the shared "unitpure" pass (Theorems 5/6), "thm2"
//     (elimination of existentials depending on all universals, Theorem 2),
//     "thm1" (elimination of the selected universals, Theorem 1) until the
//     dependency graph is acyclic, with the shared "sweep" pass compressing
//     the AIG between eliminations.
//  5. "qbf" — linearization (Theorem 3) and the linear phase (linear.go):
//     "blockelim" eliminates the innermost quantifier block variable by
//     variable, interleaved with the shared "unitpure", "dropsupport" and
//     "sweep" passes, and "finalsat" decides the last existential block with
//     one SAT call. The linear phase runs on the same state; its events
//     carry stage "qbf".
//
// Every pass execution is budget-polled, fault-injectable at
// "pipeline.<pass>", and emits one structured trace event when
// Options.Trace is set (see internal/trace). Solve itself is only pipeline
// assembly plus result mapping.
package core

import (
	"errors"
	"fmt"
	"maps"
	"time"

	"repro/internal/aig"
	"repro/internal/budget"
	"repro/internal/cert"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/problem"
	"repro/internal/trace"
)

// Status describes how a Solve attempt ended.
type Status int

const (
	// Solved means a definitive SAT/UNSAT verdict was reached.
	Solved Status = iota
	// Timeout means the wall-clock budget was exhausted.
	Timeout
	// Memout means the AIG node budget was exhausted.
	Memout
	// Cancelled means the budget was cancelled (or a conflict/decision cap
	// was exhausted) before a verdict.
	Cancelled
)

func (s Status) String() string {
	switch s {
	case Solved:
		return "solved"
	case Timeout:
		return "timeout"
	case Memout:
		return "memout"
	case Cancelled:
		return "cancelled"
	default:
		return fmt.Sprintf("Status(%d)", int(s))
	}
}

// Options configure the solver. The zero value disables every optimization;
// use DefaultOptions for the paper's configuration.
type Options struct {
	// Preprocess enables CNF-level preprocessing.
	Preprocess bool
	// DetectGates enables Tseitin gate detection (requires Preprocess).
	DetectGates bool
	// UnitPure enables syntactic unit/pure elimination on the AIG, in the
	// main loop and in the linear phase.
	UnitPure bool
	// Strategy selects the universal elimination set.
	Strategy ElimStrategy
	// ReverseElimOrder inverts the copy-cost ordering (ablation).
	ReverseElimOrder bool
	// SweepThreshold triggers a SAT sweep when the matrix grows by this many
	// AND nodes since the last sweep; 0 disables sweeping.
	SweepThreshold int
	// SweepOptions configure individual sweeps of both phases.
	SweepOptions aig.SweepOptions
	// Workers is ignored: every sweep checks its candidates on one oracle.
	// It is kept only so that callers which still set it keep building.
	Workers int
	// QBF holds the linear phase's own sweep trigger: a sweep runs once the
	// matrix has grown by SweepThreshold AND nodes since the last one; 0
	// disables sweeping there.
	QBF struct{ SweepThreshold int }
	// Certify records Skolem reconstruction steps during the solve and, on a
	// SAT verdict, extracts a per-existential Skolem certificate into
	// Result.Certificate (see internal/cert). Recording does not perturb the
	// pass schedule; extraction runs after the verdict.
	Certify bool
	// Budget, when non-nil, is the solve's only bound: the pipeline runners,
	// the MaxSAT elimination-set selection, SAT sweeps, and the final SAT
	// call of the linear phase poll it and unwind with status Timeout
	// (deadline) or Cancelled (cancel, conflict/decision caps); its node cap
	// is the AIG's node limit (the analogue of the paper's 8 GB memory
	// limit; status Memout). Nil means unlimited.
	Budget *budget.Budget
	// Trace, when non-nil, receives one structured event per executed
	// pipeline pass of either phase.
	Trace trace.Sink
}

// DefaultOptions mirror the configuration evaluated in the paper.
func DefaultOptions() Options {
	opt := Options{
		Preprocess:     true,
		DetectGates:    true,
		UnitPure:       true,
		Strategy:       ElimMaxSAT,
		SweepThreshold: 1024,
		SweepOptions:   aig.DefaultSweepOptions(),
	}
	opt.QBF.SweepThreshold = 512
	return opt
}

// Stats is the record of one solve, folded once at the end of Solve (budget
// stops and memouts included) from its ledger: the pass totals of both
// pipeline stages, the two sweep passes, the oracle pool and the AIG arena.
// The paper's in-text instrumentation reads from it: the MaxSAT selection
// time is Pass("hqs", "elimset").Wall, the unit/pure elimination time
// Pass("hqs", "unitpure").Wall.
type Stats struct {
	// ElimSet is the universal elimination set the elimset pass selected.
	ElimSet   []cnf.Var
	TotalTime time.Duration

	// Sweeps counts the SAT sweeps of the main loop and Sweep aggregates
	// their counters.
	Sweeps int
	Sweep  aig.SweepStats
	// QBF counts the sweeps of the linear phase and aggregates their
	// counters.
	QBF struct {
		Sweeps int
		Sweep  aig.SweepStats
	}

	// PeakAIGNodes is the AIG arena's final size. The arena is append-only,
	// so this is also its high-water mark.
	PeakAIGNodes int
	// DecidedBy names the pass execution that settled the formula as
	// "stage/pass": "hqs/preprocess", "hqs/build", "hqs/unitpure",
	// "hqs/thm2", "hqs/thm1", "hqs/sweep", "qbf/unitpure", "qbf/blockelim",
	// "qbf/sweep", "qbf/finalsat" or, as a fallback, "hqs/qbf". It is empty
	// unless the solve reached a verdict.
	DecidedBy string

	// Oracle aggregates the reuse counters of the run's incremental SAT
	// pool, the retired oracles of earlier sweeps included.
	Oracle oracle.Stats

	// passes holds the pipeline runners' totals, keyed by "stage/pass".
	passes map[string]pipeline.PassTotal
}

// Pass returns the totals of every execution of pass in stage ("hqs" for
// the main loop, "qbf" for the linear phase): runs, wall time and summed
// counters. Among the counters: preprocess "gates", thm1 "univ" and
// "copies", thm2 "exist", unitpure "units" and "pures".
func (s Stats) Pass(stage, pass string) pipeline.PassTotal {
	return s.passes[stage+"/"+pass]
}

// Result is the outcome of a Solve call.
type Result struct {
	Status Status
	Sat    bool
	Stats  Stats
	// Certificate holds the extracted Skolem functions when Options.Certify
	// was set and the verdict is SAT; CertErr reports an extraction failure
	// (the verdict itself is unaffected — callers decide whether an
	// uncertified SAT is acceptable).
	Certificate *cert.Certificate
	CertErr     error
}

// Solver is the HQS DQBF solver.
type Solver struct {
	Opt Options
}

// New returns a solver with the given options.
func New(opt Options) *Solver { return &Solver{Opt: opt} }

// budgetStop unwinds the solve when the budget stops it; err is the
// pipeline's stop error (pipeline.ErrTimeout or pipeline.ErrCancelled).
type budgetStop struct{ err error }

// Solve decides the ingested problem by assembling and running the standard
// HQS pass pipeline. The problem must be a formula kind (DQBF or QBF); its
// formula is not modified.
func (s *Solver) Solve(p *problem.Problem) (res Result) {
	start := time.Now()
	defer func() { res.Stats.TotalTime = time.Since(start) }()

	// Passes unwind via panic on resource exhaustion (aig.ErrNodeLimit) and
	// via stop errors otherwise; run below wraps stop errors in budgetStop,
	// which this recover maps onto statuses. Panicking keeps the assembly
	// free of error plumbing.
	defer func() {
		switch r := recover().(type) {
		case nil:
		case aig.ErrNodeLimit:
			res.Status = Memout
		case budgetStop:
			if errors.Is(r.err, pipeline.ErrTimeout) {
				res.Status = Timeout
			} else {
				res.Status = Cancelled
			}
		default:
			panic(r)
		}
	}()

	if p.Formula == nil {
		panic("core: Solve requires a formula-kind problem (DQBF or QBF)")
	}
	work := p.Formula.Clone()
	st := &pipeline.State{Prefix: work, Budget: s.Opt.Budget}
	if s.Opt.Certify {
		st.Cert = cert.NewBuilder()
	}
	r := pipeline.NewRunner(st, s.Opt.Trace, "hqs")
	px := &hqsPipeline{
		s:           s,
		st:          st,
		work:        work,
		sweep:       pipeline.NewSweepPass(s.Opt.SweepThreshold, s.Opt.SweepOptions),
		linear:      pipeline.NewRunner(st, s.Opt.Trace, "qbf"),
		linearSweep: pipeline.NewSweepPass(s.Opt.QBF.SweepThreshold, s.Opt.SweepOptions),
	}
	// Fold the ledger into Stats, once; deferred so budget-stopped solves
	// report partial counters too.
	defer func() {
		res.Stats.ElimSet = px.elimSet
		res.Stats.passes = r.Totals()
		maps.Copy(res.Stats.passes, px.linear.Totals())
		res.Stats.Sweeps, res.Stats.Sweep = px.sweep.Stats()
		res.Stats.QBF.Sweeps, res.Stats.QBF.Sweep = px.linearSweep.Stats()
		if st.G != nil {
			res.Stats.PeakAIGNodes = st.G.NumNodes()
		}
		if st.Decided {
			res.Stats.DecidedBy = st.DecidedBy
		}
		if st.Oracle != nil {
			res.Stats.Oracle = st.Oracle.Stats()
		}
	}()

	// run executes one pass, unwinding on a pipeline stop error;
	// unexpected pass failures are solver bugs (or injected faults) and
	// escalate to a panic the service layer contains.
	run := func(p pipeline.Pass) {
		if _, err := r.Run(p); err != nil {
			if errors.Is(err, pipeline.ErrTimeout) || errors.Is(err, pipeline.ErrCancelled) {
				panic(budgetStop{err: err})
			}
			panic(fmt.Sprintf("core: %v", err))
		}
	}
	decided := func() bool {
		if st.Decided {
			return true
		}
		if st.G != nil && st.Matrix.IsConst() {
			st.Decide(st.Matrix == aig.True)
			return true
		}
		return false
	}
	finish := func() Result {
		res.Status = Solved
		res.Sat = st.Sat
		// Extraction replays against the original formula, after the verdict
		// and after every trace event, so certified runs keep bit-identical
		// pass schedules.
		if st.Cert != nil && st.Sat {
			res.Certificate, res.CertErr = st.Cert.Extract(p.Formula, st.G)
		}
		return res
	}

	// Standard HQS pipeline assembly (paper Fig. 3).
	if s.Opt.Preprocess {
		run(px.preprocess())
		if st.Decided {
			return finish()
		}
	}
	run(px.build())
	run(px.elimset())

	unitPure := pipeline.UnitPurePass{}
	drop := pipeline.DropSupportPass{}
	thm2, thm1 := px.thm2(), px.thm1()
	for {
		if decided() {
			return finish()
		}
		if s.Opt.UnitPure {
			run(unitPure)
			if decided() {
				return finish()
			}
		}
		run(drop)
		run(thm2)
		if decided() {
			return finish()
		}
		if !dqbf.IsCyclic(work) {
			break
		}
		run(thm1)
		if px.elimExhausted {
			break
		}
		run(px.sweep)
	}

	if decided() {
		return finish()
	}
	run(drop)
	run(px.qbf())
	return finish()
}

// eliminateUniversal applies Theorem 1 to universal variable x:
// ψ ≡ ∀-prefix without x : φ[0/x] ∧ φ[1/x][y'/y for y ∈ E_x], where every
// existential depending on x is duplicated in the positive cofactor with
// dependency set D_y ∖ {x}. It returns the new matrix and the number of
// copies made.
func (s *Solver) eliminateUniversal(g *aig.Graph, work *dqbf.Formula, m aig.Ref, x cnf.Var, nextVar *cnf.Var, cb *cert.Builder) (aig.Ref, int) {
	cof0 := g.Cofactor(m, x, false)
	cof1 := g.Cofactor(m, x, true)

	ren := make(map[cnf.Var]cnf.Var)
	for _, y := range work.Exist {
		if work.Deps[y].Has(x) {
			ren[y] = *nextVar
			*nextVar++
		}
	}
	cb.RecordExpand(x, ren)
	cof1 = g.Rename(cof1, ren)

	// Prefix update: drop x; D_y loses x; copies y' join with the same set.
	// Copies are appended in prefix order (not ren's map order) so the
	// resulting prefix — and with it the downstream pass schedule — is
	// deterministic, which the golden-trace tests pin.
	orig := append([]cnf.Var(nil), work.Exist...)
	work.Remove(x)
	for _, y := range orig {
		yc, ok := ren[y]
		if !ok {
			continue
		}
		work.Exist = append(work.Exist, yc)
		work.Deps[yc] = work.Deps[y].Clone()
		if int(yc) > work.Matrix.NumVars {
			work.Matrix.NumVars = int(yc)
		}
	}
	return g.And(cof0, cof1), len(ren)
}
