// Package defex implements DQBF solving by definition extraction (Reichl,
// Slivovsky, Szeider: Certified DQBF Solving by Definition Extraction): a
// decision procedure algorithmically different from quantifier elimination.
//
// For each existential variable y the matrix may already *define* y as a
// function of its dependency set D_y — no Skolem choice is left. Definability
// is decided with Padoa's method: y is defined by D_y in the matrix M iff
//
//	M(V, y) ∧ M(V', y') ∧ (V|D_y = V'|D_y) ∧ y ∧ ¬y'
//
// is unsatisfiable. All checks share one persistent incremental oracle
// (internal/oracle): the primed copy is encoded once, the per-universal
// equality constraints live in never-retracted activation-literal scopes, and
// each check is one assumption query, so learned clauses flow between checks.
//
// For every defined y the defining function ψ over D_y is extracted as an
// AIG: a Craig interpolant of the Padoa refutation (the sat package's proof
// mode, McMillan's system — the shared vocabulary is exactly D_y), verified
// against the matrix before it is trusted; a candidate that fails leaves y
// undefined. ψ is substituted into the matrix (M := M[ψ/y]), the definition
// is recorded as a cert.Builder reconstruction step, and the rounds repeat —
// substitutions can make further variables defined. Existentials that remain
// undefined are handed, with the universals shrunk to the residual support,
// to the full universal expansion engine (internal/expand); its table certificate is
// folded back into the same reconstruction trail, so SAT verdicts carry one
// uniform Skolem certificate checkable by internal/cert regardless of which
// stage decided.
package defex

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/aig"
	"repro/internal/budget"
	"repro/internal/cert"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/expand"
	"repro/internal/faults"
	"repro/internal/oracle"
	"repro/internal/pipeline"
	"repro/internal/sat"
	"repro/internal/trace"
)

// CheckPoint is the fault-injection seam fired before every per-existential
// definability check. An injected error leaves the variable undefined for the
// round — sound degradation: undefined variables fall through to expansion.
var CheckPoint = faults.Point("defex.check")

func init() {
	faults.Register(CheckPoint)
	// Pass fault points, registered up front so chaos specs validate at flag
	// time.
	pipeline.RegisterPass("defex-build")
	pipeline.RegisterPass("defex-round")
	pipeline.RegisterPass("defex-final")
	pipeline.RegisterPass("defex-expand")
}

// Status describes how a Solve attempt ended (mirrors core.Status).
type Status int

const (
	// Solved means a definitive SAT/UNSAT verdict was reached.
	Solved Status = iota
	// Timeout means the wall-clock budget was exhausted.
	Timeout
	// Memout means the AIG node budget or the expansion limit was exhausted.
	Memout
	// Cancelled means the budget was cancelled or a cap exhausted early.
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

// Options configure the solver.
type Options struct {
	// MaxRounds bounds the definability rounds; 0 means until fixpoint.
	MaxRounds int
	// Budget, when non-nil, is the solve's only bound: status Timeout on its
	// deadline, Cancelled on cancellation or a conflict/decision cap, Memout
	// when the AIG reaches its node cap. Nil means unlimited.
	Budget *budget.Budget
	// Certify records Skolem reconstruction steps and, on SAT, extracts a
	// certificate into Result.Certificate.
	Certify bool
	// Trace, when non-nil, receives one structured event per pass execution
	// (one per definability round in particular).
	Trace trace.Sink
}

// DefaultOptions return the standard configuration.
func DefaultOptions() Options { return Options{} }

// Stats collects solver counters.
type Stats struct {
	Rounds          int // definability rounds executed
	Checks          int // Padoa checks run
	Defined         int // existentials substituted away by an interpolated definition
	DefinedConst    int // existentials fixed to false (outside the matrix support)
	InterpFallbacks int // defined variables whose interpolant was rejected (left to expansion)
	Skipped         int // checks skipped (faults, budget-stopped queries, rejected interpolants)
	ResidualExist   int // existentials handed to expansion
	ResidualUniv    int // universals left for expansion

	Expand     expand.Stats // residual expansion counters (if it ran)
	ExpandUsed bool

	PeakAIGNodes int
	TotalTime    time.Duration
	DecidedBy    string // "constant", "propositional", "defined", "expand"

	// Oracle aggregates the persistent incremental SAT pool's counters.
	Oracle oracle.Stats
}

// Result is the outcome of a Solve call.
type Result struct {
	Status Status
	Sat    bool
	Stats  Stats
	// Certificate holds the extracted Skolem functions when Options.Certify
	// was set and the verdict is SAT; CertErr reports an extraction failure.
	Certificate *cert.Certificate
	CertErr     error
}

// Solver is the definition-extraction DQBF engine.
type Solver struct {
	Opt Options
}

// New returns a solver with the given options.
func New(opt Options) *Solver { return &Solver{Opt: opt} }

// budgetStop unwinds the solve when the budget stops it, matching the core
// driver pattern: passes panic on resource exhaustion and the Solve recover
// maps panics onto statuses. err is the pipeline's stop error.
type budgetStop struct{ err error }

// engine carries the working state of one solve.
type engine struct {
	opt  Options
	f    *dqbf.Formula // original formula (certificate extraction target)
	work *dqbf.Formula // mutated clone
	g    *aig.Graph
	m    aig.Ref // current matrix
	n    cnf.Var // original variable bound; primed copies live at v+n
	orc  *oracle.Oracle
	pool *oracle.Pool
	st   *pipeline.State
	res  *Result

	renAll map[cnf.Var]cnf.Var // v -> v+n for every original variable
	sel    map[cnf.Var]cnf.Lit // universal x -> activation literal of x=x'
}

// Solve decides the DQBF by definition extraction. The input formula is not
// modified.
func (s *Solver) Solve(f *dqbf.Formula) (res Result) {
	start := time.Now()
	defer func() { res.Stats.TotalTime = time.Since(start) }()

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

	work := f.Clone()
	st := &pipeline.State{
		Prefix: pipeline.FormulaPrefix{F: work},
		Budget: s.Opt.Budget,
	}
	if s.Opt.Certify {
		st.Cert = cert.NewBuilder()
	}
	r := pipeline.NewRunner(st, s.Opt.Trace, "defex")
	e := &engine{opt: s.Opt, f: f, work: work, st: st, res: &res}
	defer func() {
		if e.g != nil {
			res.Stats.PeakAIGNodes = e.g.NumNodes()
		}
		if e.pool != nil {
			res.Stats.Oracle = e.pool.Stats()
		}
	}()

	run := func(p pipeline.Pass) {
		if _, err := r.Run(p); err != nil {
			if errors.Is(err, pipeline.ErrTimeout) || errors.Is(err, pipeline.ErrCancelled) {
				panic(budgetStop{err: err})
			}
			panic(fmt.Sprintf("defex: %v", err))
		}
	}
	finish := func() Result {
		res.Status = Solved
		res.Sat = st.Sat
		res.Stats.DecidedBy = st.DecidedBy
		if st.Cert != nil && st.Sat {
			res.Certificate, res.CertErr = st.Cert.Extract(f, e.g)
		}
		return res
	}

	run(pipeline.NewPass("defex-build", e.build))
	if st.Decided {
		return finish()
	}

	round := pipeline.NewPass("defex-round", e.round)
	for {
		if st.Decided {
			return finish()
		}
		if len(work.Exist) == 0 {
			break
		}
		if s.Opt.MaxRounds > 0 && res.Stats.Rounds >= s.Opt.MaxRounds {
			break
		}
		before := res.Stats.Defined + res.Stats.DefinedConst
		run(round)
		res.Stats.Rounds++
		if st.Decided {
			return finish()
		}
		if res.Stats.Defined+res.Stats.DefinedConst == before {
			break // fixpoint: no further variable became defined
		}
	}

	if len(work.Exist) == 0 {
		run(pipeline.NewPass("defex-final", e.final))
		return finish()
	}
	run(pipeline.NewPass("defex-expand", e.expandResidual))
	return finish()
}

// build constructs the AIG matrix from the CNF, sets up the persistent
// oracle, and settles trivially unsatisfiable matrices.
func (e *engine) build(st *pipeline.State) (pipeline.Result, error) {
	g := aig.New()
	g.NodeLimit = e.opt.Budget.NodeCap()

	lits := make([]aig.Ref, 0, 8)
	m := aig.True
	for _, c := range e.work.Matrix.Clauses {
		lits = lits[:0]
		for _, l := range c {
			lits = append(lits, g.Input(l.Var()).XorSign(l.Neg()))
		}
		m = g.And(m, g.OrN(lits...))
	}
	e.g, e.m = g, m
	st.G, st.Matrix = g, m
	e.n = cnf.Var(e.work.Matrix.NumVars)
	e.renAll = make(map[cnf.Var]cnf.Var, e.n)
	for v := cnf.Var(1); v <= e.n; v++ {
		e.renAll[v] = v + e.n
	}
	e.sel = make(map[cnf.Var]cnf.Lit)
	e.pool = oracle.NewPool(g)
	st.Oracle = e.pool
	e.orc = e.pool.Main()

	if m.IsConst() {
		st.Decide(m == aig.True, "constant")
		return pipeline.Result{Changed: true}, nil
	}
	// A propositionally unsatisfiable matrix settles the DQBF outright (and
	// would make every later definability check vacuously succeed).
	sat, err := e.query(e.orc.Lit(m))
	if err != nil {
		if serr := st.Stop(); serr != nil {
			return pipeline.Result{}, serr
		}
		return pipeline.Result{}, fmt.Errorf("defex: initial SAT check: %w", err)
	}
	if !sat {
		st.Decide(false, "propositional")
		return pipeline.Result{Changed: true}, nil
	}
	return pipeline.Result{
		Changed:  true,
		Counters: pipeline.Counters{"nodes": int64(g.NumNodes())},
	}, nil
}

// query runs one oracle assumption query, folding the tri-state into a bool.
func (e *engine) query(assumps ...cnf.Lit) (bool, error) {
	status, err := e.orc.QueryAssuming(assumps, e.opt.Budget)
	if err != nil {
		return false, err
	}
	switch status {
	case sat.Sat:
		return true, nil
	case sat.Unsat:
		return false, nil
	default:
		return false, errors.New("defex: oracle query inconclusive")
	}
}

// selLit returns the activation literal enforcing x = x' while assumed,
// opening the (never-retracted) scope on first use.
func (e *engine) selLit(x cnf.Var) cnf.Lit {
	if l, ok := e.sel[x]; ok {
		return l
	}
	xl := e.orc.Lit(e.g.Input(x))
	xpl := e.orc.Lit(e.g.Input(x + e.n))
	act := e.orc.OpenScope()
	e.orc.AddScoped(act, xl.Not(), xpl)
	e.orc.AddScoped(act, xl, xpl.Not())
	e.sel[x] = act
	return act
}

// round runs one definability round: every remaining existential is checked
// with Padoa's method, every newly defined one is extracted and substituted.
func (e *engine) round(st *pipeline.State) (pipeline.Result, error) {
	stats := &e.res.Stats
	cnt := pipeline.Counters{}
	changed := false

	// Snapshot: Remove mutates work.Exist during the loop.
	pending := append([]cnf.Var(nil), e.work.Exist...)
	for _, y := range pending {
		if err := st.Stop(); err != nil {
			return pipeline.Result{Changed: changed, Counters: cnt}, err
		}
		if ferr := st.Budget.Faults().Fire(CheckPoint); ferr != nil {
			stats.Skipped++
			cnt["skipped"]++
			continue
		}
		support := e.g.Support(e.m)
		if !support[y] {
			// y is unconstrained: any function works; pick constant false.
			st.Cert.RecordDef(y, aig.False)
			pipeline.FormulaPrefix{F: e.work}.Remove(y)
			stats.DefinedConst++
			cnt["defined_const"]++
			changed = true
			continue
		}

		stats.Checks++
		cnt["checks"]++
		defined, err := e.checkDefined(y)
		if err != nil {
			if serr := st.Stop(); serr != nil {
				return pipeline.Result{Changed: changed, Counters: cnt}, serr
			}
			stats.Skipped++
			cnt["skipped"]++
			continue
		}
		if !defined {
			continue
		}

		psi, ok := e.extract(y)
		if !ok {
			stats.InterpFallbacks++
			stats.Skipped++
			cnt["skipped"]++
			continue
		}
		e.m = e.g.Compose(e.m, map[cnf.Var]aig.Ref{y: psi})
		st.Matrix = e.m
		st.Cert.RecordDef(y, psi)
		pipeline.FormulaPrefix{F: e.work}.Remove(y)
		stats.Defined++
		cnt["defined"]++
		changed = true

		if e.m.IsConst() {
			// All remaining existentials are unconstrained now.
			for _, z := range append([]cnf.Var(nil), e.work.Exist...) {
				st.Cert.RecordDef(z, aig.False)
				pipeline.FormulaPrefix{F: e.work}.Remove(z)
			}
			st.Decide(e.m == aig.True, "constant")
			return pipeline.Result{Changed: true, Counters: cnt}, nil
		}
	}
	return pipeline.Result{Changed: changed, Counters: cnt}, nil
}

// checkDefined runs the Padoa query for y: matrix ∧ primed matrix ∧
// (D_y = D_y') ∧ y ∧ ¬y' unsatisfiable iff the matrix defines y over D_y.
func (e *engine) checkDefined(y cnf.Var) (bool, error) {
	b := e.g.Rename(e.m, e.renAll)
	deps := e.f.Deps[y].Vars() // original dependency set; never grows
	assumps := make([]cnf.Lit, 0, len(deps)+4)
	assumps = append(assumps, e.orc.Lit(e.m), e.orc.Lit(b))
	for _, x := range deps {
		assumps = append(assumps, e.selLit(x))
	}
	assumps = append(assumps,
		e.orc.Lit(e.g.Input(y)),
		e.orc.Lit(e.g.Input(y+e.n)).Not(),
	)
	sat, err := e.query(assumps...)
	if err != nil {
		return false, err
	}
	return !sat, nil
}

// final decides the all-defined endgame: with every existential substituted
// away the matrix is a function of universals only, and the DQBF holds iff
// it is a tautology (its negation is unsatisfiable).
func (e *engine) final(st *pipeline.State) (pipeline.Result, error) {
	sat, err := e.query(e.orc.Lit(e.m.Not()))
	if err != nil {
		if serr := st.Stop(); serr != nil {
			return pipeline.Result{}, serr
		}
		return pipeline.Result{}, fmt.Errorf("defex: final validity check: %w", err)
	}
	st.Decide(!sat, "defined")
	return pipeline.Result{Changed: true}, nil
}

// expandResidual hands the undefined remainder to the expansion engine:
// universals are shrunk to the matrix support, the matrix is re-encoded to
// CNF (Tseitin variables become existentials depending on every residual
// universal), and a SAT verdict's table certificate is folded back into the
// reconstruction trail as definitions.
func (e *engine) expandResidual(st *pipeline.State) (pipeline.Result, error) {
	stats := &e.res.Stats
	support := e.g.Support(e.m)

	// Unconstrained existentials default to false; unconstrained universals
	// leave the dependency sets.
	for _, z := range append([]cnf.Var(nil), e.work.Exist...) {
		if !support[z] {
			st.Cert.RecordDef(z, aig.False)
			stats.DefinedConst++
		}
	}
	pipeline.FormulaPrefix{F: e.work}.RetainSupport(support)
	stats.ResidualExist = len(e.work.Exist)
	stats.ResidualUniv = len(e.work.Univ)

	fcnf, root := e.g.ToFormula(e.m, e.n)
	fres := dqbf.New()
	fres.Matrix = fcnf
	fres.Matrix.AddClause(root)
	for _, x := range e.work.Univ {
		fres.AddUniversal(x)
	}
	for _, z := range e.work.Exist {
		fres.AddExistential(z, e.work.Deps[z].Vars()...)
	}
	// Tseitin gate variables depend on everything: they are functions of the
	// whole assignment.
	for v := e.n + 1; int(v) <= fcnf.NumVars; v++ {
		if !fres.IsExistential(v) && !fres.IsUniversal(v) {
			fres.AddExistential(v, e.work.Univ...)
		}
	}

	ex := expand.New(expand.Options{
		Budget:  e.opt.Budget,
		Certify: st.Cert != nil,
	})
	eres, err := ex.Solve(fres)
	stats.Expand = eres.Stats
	stats.ExpandUsed = true
	if err != nil {
		if serr := st.Stop(); serr != nil {
			return pipeline.Result{}, serr
		}
		if errors.Is(err, expand.ErrTooManyUniversals) {
			// The expansion refusal is the engine's memory limit: the
			// residual problem is too large for this back end.
			panic(aig.ErrNodeLimit{Limit: expand.MaxUniversals})
		}
		return pipeline.Result{}, fmt.Errorf("defex: residual expansion: %w", err)
	}
	if !eres.Sat {
		st.Decide(false, "expand")
		return pipeline.Result{Changed: true}, nil
	}
	// Fold the expansion's certificate back as definitions over the
	// (shrunk) dependency sets, copied into the working graph.
	if st.Cert != nil && eres.Certificate != nil {
		memo := make(map[int32]aig.Ref)
		for _, z := range e.work.Exist {
			st.Cert.RecordDef(z, eres.Certificate.G.Export(eres.Certificate.Funcs[z], e.g, memo))
		}
	}
	st.Decide(true, "expand")
	return pipeline.Result{
		Changed: true,
		Counters: pipeline.Counters{
			"instances": int64(eres.Stats.Instances),
			"copies":    int64(eres.Stats.Copies),
		},
	}, nil
}
