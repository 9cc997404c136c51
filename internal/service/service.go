// Package service turns the batch DQBF solvers into a long-running solver
// service. It has one entry point per layer, all taking a Request:
//
//   - Runner.Run makes one budgeted engine attempt — HQS, the iDQ baseline,
//     the expansion reference, or a portfolio racing all three and
//     cancelling the losers. Runner.SolvePQE answers
//     partial-quantifier-elimination queries the same way.
//   - Scheduler.Submit queues a job on a bounded worker pool with per-job
//     limits, retries and engine fallback, in front of an LRU result cache
//     keyed by a canonical hash of the parsed formula and an optional
//     persistent store. Scheduler.SolvePQE runs a PQE query under the same
//     timeout policy.
//
// Policy and meters live in values, not in the process: a Runner carries the
// certify policy and counts its own engine attempts and wins, PQE queries and
// oracle reuse, and each Scheduler owns one Runner built from its Config.
//
// The package is also the failure-containment boundary of the stack: every
// engine attempt runs under recover (a panicking solver core becomes an
// Error verdict with the stack captured, never a dead worker), transient
// failures are retried with exponential backoff and jitter, failed engines
// fall back along a chain ending in the iDQ baseline, and SAT verdicts
// backed by Skolem certificates are verified before they are reported.
//
// The package is the substrate of the hqsd daemon (cmd/hqsd) but is equally
// usable in-process; every entry point is safe for concurrent use.
package service

import (
	"errors"
	"fmt"
	"runtime/debug"
	"strings"
	"sync/atomic"

	"repro/internal/budget"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/expand"
	"repro/internal/faults"
	"repro/internal/idq"
	"repro/internal/oracle"
	"repro/internal/pqe"
	"repro/internal/problem"
	"repro/internal/trace"
)

// Engine selects which solver core decides a job.
type Engine string

const (
	// EngineHQS is the paper's elimination-based solver (internal/core).
	EngineHQS Engine = "hqs"
	// EngineIDQ is the instantiation-based baseline (internal/idq).
	EngineIDQ Engine = "idq"
	// EngineExpand is the eager full-expansion reference engine
	// (internal/expand).
	EngineExpand Engine = "expand"
	// EnginePortfolio races the engines and cancels the losers. Because every
	// engine is sound, the reported verdict is deterministic even though the
	// winning engine may vary from run to run.
	EnginePortfolio Engine = "portfolio"
)

// numArms is how many engines the portfolio races: the first numArms
// entries of allEngines.
const numArms = 3

// allEngines lists every selectable engine: the portfolio arms in launch
// order, then the portfolio itself. It is also the display order of
// FormatEngineStats and the slot order of a Runner's engine meters.
func allEngines() [numArms + 1]Engine {
	return [...]Engine{EngineHQS, EngineIDQ, EngineExpand, EnginePortfolio}
}

// ParseEngine maps a user-supplied engine name to an Engine; the empty
// string selects the portfolio.
func ParseEngine(s string) (Engine, error) {
	if s == "" {
		return EnginePortfolio, nil
	}
	for _, eng := range allEngines() {
		if Engine(s) == eng {
			return eng, nil
		}
	}
	return "", fmt.Errorf("service: unknown engine %q (want hqs, idq, expand, or portfolio)", s)
}

// EngineCounters are the attempt/win totals of one engine.
type EngineCounters struct {
	// Attempts counts engine runs started (portfolio arms count for the arm's
	// engine AND one attempt for the portfolio row itself).
	Attempts int64 `json:"attempts"`
	// Wins counts definitive verdicts the engine itself produced; the
	// portfolio row never wins — its verdicts are credited to the winning arm.
	Wins int64 `json:"wins"`
}

// FormatEngineStats renders the counters as a stable one-line-per-engine
// table in the fixed engine order.
func FormatEngineStats(stats map[Engine]EngineCounters) string {
	var b strings.Builder
	for _, eng := range allEngines() {
		c := stats[eng]
		if c.Attempts == 0 && c.Wins == 0 {
			continue
		}
		fmt.Fprintf(&b, "%-10s attempts=%-6d wins=%d\n", eng, c.Attempts, c.Wins)
	}
	return b.String()
}

// Verdict is the four-valued answer of a budgeted solve.
type Verdict int

const (
	// VerdictUnknown means no verdict was reached (timeout, cancellation,
	// or resource-out).
	VerdictUnknown Verdict = iota
	// VerdictSat means the DQBF is satisfiable.
	VerdictSat
	// VerdictUnsat means the DQBF is unsatisfiable.
	VerdictUnsat
	// VerdictError means the solve failed rather than ran out of budget: an
	// engine panicked, an oracle returned an injected or internal error, or
	// a Skolem certificate failed verification. Error outcomes are never
	// cached and are produced only after retries and fallbacks were
	// exhausted.
	VerdictError
)

func (v Verdict) String() string {
	switch v {
	case VerdictSat:
		return "SAT"
	case VerdictUnsat:
		return "UNSAT"
	case VerdictError:
		return "ERROR"
	default:
		return "UNKNOWN"
	}
}

// MarshalJSON renders the verdict as its string form ("SAT", ...).
func (v Verdict) MarshalJSON() ([]byte, error) {
	return []byte(`"` + v.String() + `"`), nil
}

// UnmarshalJSON parses the string form produced by MarshalJSON.
func (v *Verdict) UnmarshalJSON(data []byte) error {
	switch string(data) {
	case `"SAT"`:
		*v = VerdictSat
	case `"UNSAT"`:
		*v = VerdictUnsat
	case `"UNKNOWN"`:
		*v = VerdictUnknown
	case `"ERROR"`:
		*v = VerdictError
	default:
		return fmt.Errorf("service: bad verdict %s", data)
	}
	return nil
}

// Outcome is the result of one budgeted solve.
type Outcome struct {
	// Verdict is the answer (Unknown when the budget stopped the solve,
	// Error when the solve failed).
	Verdict Verdict `json:"verdict"`
	// Engine is the engine that produced the verdict; in portfolio mode the
	// race winner. Empty when no engine reached a verdict.
	Engine Engine `json:"engine,omitempty"`
	// Reason explains the outcome: "solved", "timeout", "cancelled",
	// "budget" (conflict/decision cap), "memout" (node/instantiation cap),
	// or "error" (engine failure; see Error).
	Reason string `json:"reason"`
	// Error describes the failure behind a VerdictError outcome.
	Error string `json:"error,omitempty"`
	// PanicStack is the captured goroutine stack when the failure was a
	// panic, preserved in the job record for postmortems.
	PanicStack string `json:"panic_stack,omitempty"`
	// FromCache marks a result served from the scheduler's in-memory LRU.
	FromCache bool `json:"from_cache,omitempty"`
	// FromStore marks a result served from the persistent on-disk store
	// (its certificate, when present, was re-verified before serving).
	FromStore bool `json:"from_store,omitempty"`
	// Attempts counts engine runs performed for this outcome, including
	// retries and fallback runs (0 for cache hits, otherwise >= 1).
	Attempts int `json:"attempts,omitempty"`
	// Fallbacks counts how far the outcome fell down the engine fallback
	// chain (0 = the requested engine answered).
	Fallbacks int `json:"fallbacks,omitempty"`
	// Conflicts and Decisions are the CDCL totals metered into the job's
	// budget across every oracle call of every engine involved.
	Conflicts int64 `json:"conflicts"`
	Decisions int64 `json:"decisions"`
	// Cert is the verified Skolem certificate backing a SAT verdict, carried
	// so the scheduler's persistent store can write it next to the result
	// (and re-verify it on every future load). Nil for UNSAT, for engines
	// that emitted none, and for HQS runs of a non-certifying Runner.
	// Not part of the JSON surface — certificates are large and internal.
	Cert *cert.Certificate `json:"-"`
}

// Request is one solve or PQE query, the single argument of every entry
// point in this package.
type Request struct {
	// Problem is the ingested instance: a formula kind (DQBF or QBF) for
	// Run and Submit, a PQE query for SolvePQE. It is never modified.
	Problem *problem.Problem
	// Engine selects the solver core; "" takes the scheduler's default
	// engine (the portfolio for a bare Runner). SolvePQE ignores it.
	Engine Engine
	// Limits bound the solve. The scheduler applies its timeout policy to
	// them; a Runner uses them only when it is handed no budget.
	Limits Limits
	// IdemKey, when non-empty, dedupes Submit: while a job submitted under
	// the same key is still tracked, resubmits of the same formula return
	// that job, and resubmits of another are refused (ErrIdemConflict).
	IdemKey string
	// Trace, when non-nil, receives one trace.Event per executed pipeline
	// pass (in portfolio mode, of the HQS arm; PQE rounds for SolvePQE). A
	// scheduled job emits to it from a worker goroutine, next to the job's
	// own trace ring.
	Trace trace.Sink
}

// Runner makes single engine attempts and PQE queries under the certify
// policy it carries, and meters them: per-engine attempts and wins, PQE
// queries and failures, and the oracle reuse counters the HQS engine
// reports. Two runners in one process — a certifying scheduler next
// to a plain one, say — share neither policy nor counts. The zero value is
// ready to use; a Runner must not be copied after first use.
type Runner struct {
	// Certify makes every HQS run extract a Skolem certificate and has it
	// verified before a SAT verdict is reported (hqs -cert,
	// hqsd -certify). iDQ and expand certificates are always verified.
	Certify bool

	engines                 [numArms + 1]struct{ attempts, wins atomic.Int64 }
	pqeQueries, pqeFailures atomic.Int64
	oracleQueries           atomic.Int64
	oracleIncremental       atomic.Int64
	oracleRebuilds          atomic.Int64
}

// Stats snapshots the runner's meters into the Engines, Oracle* and PQE*
// fields of a Stats value; a Scheduler fills in the rest.
func (r *Runner) Stats() Stats {
	st := Stats{
		OracleQueries:     r.oracleQueries.Load(),
		OracleIncremental: r.oracleIncremental.Load(),
		OracleRebuilds:    r.oracleRebuilds.Load(),
		PQEQueries:        r.pqeQueries.Load(),
		PQEFailures:       r.pqeFailures.Load(),
		Engines:           make(map[Engine]EngineCounters, len(r.engines)),
	}
	for i, eng := range allEngines() {
		m := &r.engines[i]
		st.Engines[eng] = EngineCounters{Attempts: m.attempts.Load(), Wins: m.wins.Load()}
	}
	return st
}

// Run decides req.Problem with req.Engine under b; a nil b means a fresh
// budget from req.Limits. It performs exactly one attempt — no retries or
// fallbacks (Scheduler.Submit adds those) — but panics are still isolated
// into a VerdictError outcome, and SAT answers pass the certify step before
// being reported. An unknown engine or a problem without a formula (a PQE
// query; see SolvePQE) is an Error outcome. Conflict/decision meters are
// read from b, so callers wanting per-call totals should pass a fresh
// budget per call.
func (r *Runner) Run(b *budget.Budget, req Request) Outcome {
	if b == nil {
		b = budget.New(req.Limits.budgetLimits())
	}
	eng, err := ParseEngine(string(req.Engine))
	if err == nil && req.Problem.Formula == nil {
		err = fmt.Errorf("service: %s problem has no formula (use SolvePQE for PQE queries)", req.Problem.Kind)
	}
	if err != nil {
		return Outcome{Verdict: VerdictError, Reason: "error", Error: err.Error()}
	}
	out := r.attempt(req.Problem, eng, b, req.Trace)
	out.Attempts = 1
	out.Conflicts = b.ConflictsUsed()
	out.Decisions = b.DecisionsUsed()
	return out
}

// attempt is one top-level engine attempt: runGuarded, then a definitive
// verdict is credited as a win to the engine that produced it. A portfolio
// outcome carries the name of the arm the race returned, so exactly that arm
// wins — not the portfolio row, and not a losing arm that also finished
// before its cancel landed.
func (r *Runner) attempt(p *problem.Problem, eng Engine, b *budget.Budget, sink trace.Sink) Outcome {
	out := r.runGuarded(p, eng, b, sink)
	if out.Verdict == VerdictSat || out.Verdict == VerdictUnsat {
		for i, e := range allEngines() {
			if e == out.Engine {
				r.engines[i].wins.Add(1)
			}
		}
	}
	return out
}

// runGuarded executes one engine run with panic isolation: a panic
// anywhere in the engine (or injected by a fault plan) is converted into a
// VerdictError outcome carrying the message and captured stack. It counts
// the run as an attempt of eng; wins are credited by attempt.
func (r *Runner) runGuarded(p *problem.Problem, eng Engine, b *budget.Budget, sink trace.Sink) (out Outcome) {
	for i, e := range allEngines() {
		if e == eng {
			r.engines[i].attempts.Add(1)
		}
	}
	defer func() {
		if rec := recover(); rec != nil {
			out = Outcome{
				Verdict:    VerdictError,
				Engine:     eng,
				Reason:     "error",
				Error:      fmt.Sprintf("engine %s panicked: %v", eng, rec),
				PanicStack: string(debug.Stack()),
			}
		}
	}()
	var a answer
	switch eng {
	case EngineHQS:
		a = r.runHQS(p, b, sink)
	case EngineIDQ:
		a = runIDQ(p.Formula, b)
	case EngineExpand:
		a = runExpand(p.Formula, b)
	default:
		return r.runPortfolio(p, b, sink)
	}
	return a.outcome(eng, p.Formula, b)
}

// answer is one engine run in engine-neutral form, before the certify step.
type answer struct {
	// reason is "solved", "timeout", "memout", "cancelled" (a budget stop,
	// refined from the budget's reason), or "error" (see err).
	reason string
	err    error
	sat    bool
	// check makes a SAT answer pass certify before it is reported; cert and
	// certErr are the engine's Skolem certificate or why it has none.
	check   bool
	cert    *cert.Certificate
	certErr error
}

// outcome reports the answer of engine eng on f. A SAT answer under check
// is reported only once its certificate passes certify: a rejected
// certificate means the solver (or the memory under it) is broken, and the
// honest answer is Error, not a silent SAT.
func (a answer) outcome(eng Engine, f *dqbf.Formula, b *budget.Budget) Outcome {
	out := Outcome{Engine: eng, Reason: a.reason}
	switch {
	case a.reason == "cancelled":
		out.Reason = reasonFromErr(b.Err())
	case a.reason == "error":
		out.Verdict, out.Error = VerdictError, a.err.Error()
	case a.reason != "solved":
	case !a.sat:
		out.Verdict = VerdictUnsat
	case !a.check:
		out.Verdict = VerdictSat
	default:
		c, err := certify(f, a.cert, a.certErr, b.Faults())
		if err != nil {
			out.Verdict, out.Reason = VerdictError, "error"
			out.Error = fmt.Sprintf("skolem certificate rejected: %v", err)
			return out
		}
		out.Verdict, out.Cert = VerdictSat, c
	}
	return out
}

// certify is the trust step behind every checked SAT verdict: the
// service.certify fault point of the solve's plan, then the independent
// checker (cert.Check) on the engine's Skolem certificate. A certificate the
// engine failed to produce fails like one the checker rejects. It returns
// the checked certificate so the outcome can carry it to the persistent
// store.
func certify(f *dqbf.Formula, c *cert.Certificate, extractErr error, plan *faults.Plan) (*cert.Certificate, error) {
	if err := plan.Fire(faults.CertVerify); err != nil {
		return nil, err
	}
	if extractErr != nil {
		return nil, fmt.Errorf("extraction failed: %w", extractErr)
	}
	if err := cert.Check(f, c); err != nil {
		return nil, err
	}
	return c, nil
}

// reasonFromErr maps a budget stop reason to an Outcome.Reason.
func reasonFromErr(err error) string {
	switch {
	case errors.Is(err, budget.ErrDeadline):
		return "timeout"
	case errors.Is(err, budget.ErrConflicts), errors.Is(err, budget.ErrDecisions):
		return "budget"
	default:
		return "cancelled"
	}
}

// countOracle folds one engine run's oracle reuse counters into the meters.
func (r *Runner) countOracle(st oracle.Stats) {
	r.oracleQueries.Add(st.Queries)
	r.oracleIncremental.Add(st.Incremental)
	r.oracleRebuilds.Add(st.Rebuilds)
}

func (r *Runner) runHQS(p *problem.Problem, b *budget.Budget, sink trace.Sink) answer {
	opt := core.DefaultOptions()
	opt.Budget = b
	opt.Trace = sink
	opt.Certify = r.Certify
	res := core.New(opt).Solve(p)
	r.countOracle(res.Stats.Oracle)
	return answer{reason: res.Status.String(), sat: res.Sat,
		check: opt.Certify, cert: res.Certificate, certErr: res.CertErr}
}

// runIDQ runs the iDQ baseline. Its certificates are always checked: the
// solver alone is not trusted with a SAT answer.
func runIDQ(f *dqbf.Formula, b *budget.Budget) answer {
	res := idq.New(idq.Options{Budget: b}).Solve(f)
	return answer{reason: res.Status.String(), err: res.Err, sat: res.Sat, check: true, cert: res.Certificate}
}

// runExpand runs the eager full-expansion reference engine. Its
// certificates are always checked (the iDQ trust policy): the engine exists
// for cross-checking, so an unverified SAT from it has no value.
func runExpand(f *dqbf.Formula, b *budget.Budget) answer {
	res, err := expand.New(expand.Options{Budget: b, Certify: true}).Solve(f)
	switch {
	case err == nil:
	case errors.Is(err, budget.ErrDeadline):
		return answer{reason: "timeout"}
	case errors.Is(err, budget.ErrCancelled),
		errors.Is(err, budget.ErrConflicts),
		errors.Is(err, budget.ErrDecisions):
		return answer{reason: "cancelled"}
	case errors.Is(err, expand.ErrTooManyUniversals):
		// The expansion refusal is this engine's memory limit.
		return answer{reason: "memout"}
	default:
		return answer{reason: "error", err: err}
	}
	return answer{reason: "solved", sat: res.Sat, check: true, cert: res.Certificate}
}

// PQEOutcome is the answer to one PQE query.
type PQEOutcome struct {
	// Result holds the computed clause set Q, with Q ∧ ∃X[G] ≡ ∃X[F ∧ G],
	// and the engine's round counters; nil when Err is set.
	Result *pqe.Result
	// Err is why the query has no answer. With Stopped set it is a budget
	// stop or an injected spurious Unknown — the answer is unknown, not a
	// failure.
	Err     error
	Stopped bool
	// Conflicts and Decisions are the CDCL totals metered into the query's
	// budget.
	Conflicts int64
	Decisions int64
}

// SolvePQE answers the PQE query req.Problem under b (nil means a fresh
// budget from req.Limits) with the failure containment engine runs get: a
// panic anywhere in the PQE engine becomes a failure, never a dead caller.
func (r *Runner) SolvePQE(b *budget.Budget, req Request) (out PQEOutcome) {
	if b == nil {
		b = budget.New(req.Limits.budgetLimits())
	}
	r.pqeQueries.Add(1)
	defer func() {
		if rec := recover(); rec != nil {
			out.Result = nil
			out.Err = fmt.Errorf("pqe engine panicked: %v\n%s", rec, debug.Stack())
		}
		if out.Err != nil {
			out.Result = nil
			r.pqeFailures.Add(1)
			out.Stopped = b.Stopped() || errors.Is(out.Err, faults.ErrUnknown)
		}
		out.Conflicts = b.ConflictsUsed()
		out.Decisions = b.DecisionsUsed()
	}()
	if req.Problem.PQE == nil {
		out.Err = fmt.Errorf("service: %s problem is not a PQE query", req.Problem.Kind)
		return out
	}
	out.Result, out.Err = pqe.Solve(req.Problem.PQE, pqe.Options{Budget: b, Trace: req.Trace})
	return out
}

// runPortfolio races the portfolio arms (HQS, iDQ, expand) on child budgets
// of b. The first definitive verdict wins and the losers are cancelled; if
// the parent budget stops first, every child is cancelled. Different engines
// win on different instance families (HQS on elimination-friendly prefixes,
// iDQ on refutable instances, expand on tiny universal counts), which is the
// point of keeping them all live behind one interface. The returned outcome
// names the winning arm; only that arm is credited with the win.
//
// Each arm runs guarded in its own goroutine, so a panicking engine loses
// the race instead of killing the process; the portfolio reports Error only
// when no arm produced a verdict and at least one failed outright.
func (r *Runner) runPortfolio(p *problem.Problem, b *budget.Budget, sink trace.Sink) Outcome {
	all := allEngines()
	arms := all[:numArms]
	buds := make([]*budget.Budget, len(arms))
	ch := make(chan Outcome, len(arms))
	cancelAll := func() {
		for _, cb := range buds {
			cb.Cancel()
		}
	}
	for i, eng := range arms {
		buds[i] = b.Child()
		// Only the HQS arm gets the per-pass trace sink: sinks need not be
		// safe for concurrent emission from racing pipelines.
		var armSink trace.Sink
		if eng == EngineHQS {
			armSink = sink
		}
		go func(eng Engine, cb *budget.Budget, s trace.Sink) {
			ch <- r.runGuarded(p, eng, cb, s)
		}(eng, buds[i], armSink)
	}

	var winner *Outcome
	var losers []Outcome
	doneCh := b.Done()
	for n := 0; n < len(arms); {
		select {
		case o := <-ch:
			n++
			if o.Verdict == VerdictSat || o.Verdict == VerdictUnsat {
				if winner == nil {
					o := o
					winner = &o
					// Cancel the losers; keep draining so every goroutine
					// finishes before we fold the meters back.
					cancelAll()
				}
			} else {
				losers = append(losers, o)
			}
		case <-doneCh:
			doneCh = nil
			cancelAll()
		}
	}
	for _, cb := range buds {
		b.AddConflicts(cb.ConflictsUsed())
		b.AddDecisions(cb.DecisionsUsed())
	}
	if winner != nil {
		return *winner
	}
	// Every arm came back empty-handed. If the parent budget stopped the
	// race, report its reason; otherwise merge the arms' outcomes by a fixed
	// priority (resource exhaustion over failure over cancellation) so the
	// report does not depend on arrival order.
	out := Outcome{Verdict: VerdictUnknown, Engine: EnginePortfolio, Reason: "cancelled"}
	if err := b.Err(); err != nil {
		out.Reason = reasonFromErr(err)
		return out
	}
	for _, want := range []string{"timeout", "memout", "budget"} {
		for _, o := range losers {
			if o.Reason == want {
				out.Reason = want
				return out
			}
		}
	}
	for _, o := range losers {
		if o.Verdict == VerdictError {
			out.Verdict = VerdictError
			out.Reason = "error"
			out.Error = o.Error
			out.PanicStack = o.PanicStack
			return out
		}
	}
	return out
}
