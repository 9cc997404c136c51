// Package pipeline is the pass-manager framework of the elimination stack.
// HQS is a sequence of named transformations — preprocessing, gate
// detection, matrix construction, elimination-set selection, then an
// interleaved loop of unit/pure elimination, Theorem-2 and Theorem-1
// eliminations and FRAIG sweeping, finishing with a linear phase of
// block-wise QBF elimination — and this package makes that sequence
// first-class: a Pass is one named transformation over a shared State (the
// working formula as the prefix, the AIG, the matrix reference, and the
// budget), and a Runner executes passes, polling the budget between them,
// firing a per-pass fault-injection point ("pipeline.<pass>"), and emitting
// one structured trace.Event per pass execution.
//
// A solve has one State. Its main loop and its linear phase run their
// passes on two Runners over that State, so each phase's events carry its
// own stage name ("hqs", "qbf") and each keeps its own per-pass totals.
//
// The framework exists so alternative preprocessing or elimination
// techniques (a definability pass, partial elimination with learning, …)
// drop into the solver as passes instead of being hand-woven into another
// copy of the main loop, and so each solve is observable per stage rather
// than as one opaque wall time.
package pipeline

import (
	"errors"

	"repro/internal/aig"
	"repro/internal/budget"
	"repro/internal/cert"
	"repro/internal/dqbf"
	"repro/internal/faults"
	"repro/internal/oracle"
)

// Stop errors returned by Runner.Run and State.Stop when the budget ends a
// solve between or inside passes.
var (
	// ErrTimeout means the budget's deadline passed.
	ErrTimeout = errors.New("pipeline: deadline exceeded")
	// ErrCancelled means the budget was cancelled or a cap was exhausted —
	// including an injected spurious Unknown from a pipeline fault point.
	ErrCancelled = errors.New("pipeline: cancelled")
)

// State is the shared mutable state a pipeline threads through its passes.
type State struct {
	// G is the AIG the matrix lives in (nil until a build pass creates it).
	G *aig.Graph
	// Matrix is the current matrix reference in G.
	Matrix aig.Ref
	// Prefix is the working formula whose quantifier prefix is being
	// eliminated; passes remove the variables they eliminate from it. Its
	// CNF matrix is stale once Matrix is built.
	Prefix *dqbf.Formula
	// Budget, when non-nil, bounds the pipeline (deadline, caps,
	// cancellation); the Runner polls it before each pass and long passes
	// poll Stop between rounds.
	Budget *budget.Budget
	// Cert, when non-nil, collects Skolem reconstruction steps from every
	// formula-changing pass. All Builder recorders are nil-safe, so passes
	// record unconditionally.
	Cert *cert.Builder
	// Oracle is the run's incremental SAT substrate: one pool of solvers
	// over G, created alongside the graph by the build pass. Sweeping, the
	// MaxSAT elimination-set selection and the final SAT check route every
	// query through it. The main oracle and the MaxSAT backend keep their
	// encodings and learned clauses for the whole solve; a sweep's worker
	// oracles keep theirs for that sweep. A pipeline that sweeps must set it.
	Oracle *oracle.Pool

	// Decided and Sat carry the verdict once a pass settles the formula.
	Decided bool
	Sat     bool
	// DecidedBy is stamped by the Runner as "stage/pass" (such as
	// "hqs/preprocess" or "qbf/finalsat") on the first pass execution after
	// which the state is decided or the matrix is constant.
	DecidedBy string
}

// Decide records a verdict on the state.
func (st *State) Decide(sat bool) {
	st.Decided = true
	st.Sat = sat
}

// Stop reports whether the pipeline must unwind: ErrTimeout past the
// budget's deadline, ErrCancelled on budget cancellation or cap exhaustion,
// nil to keep going. Long-running passes poll it between fixpoint rounds.
func (st *State) Stop() error {
	if err := st.Budget.Err(); err != nil {
		if errors.Is(err, budget.ErrDeadline) {
			return ErrTimeout
		}
		return ErrCancelled
	}
	return nil
}

// Counters are the pass-specific counters of one pass execution, reported
// into the trace event and aggregated by the Runner.
type Counters map[string]int64

// Add folds o into c, allocating c if needed, and returns it.
func (c Counters) Add(o Counters) Counters {
	if len(o) == 0 {
		return c
	}
	if c == nil {
		c = make(Counters, len(o))
	}
	for k, v := range o {
		c[k] += v
	}
	return c
}

// Result reports what one pass execution did.
type Result struct {
	// Changed is true when the pass modified the state (used by fixpoint
	// groups to decide convergence).
	Changed bool
	// Counters are the pass-specific counters of this execution.
	Counters Counters
}

// Pass is one named transformation over the shared state. Run returns the
// mutation summary and an error only for stop conditions (ErrTimeout /
// ErrCancelled) or hard failures; out-of-memory unwinds via the graph's
// aig.ErrNodeLimit panic exactly as in the monolithic loops.
type Pass interface {
	Name() string
	Run(st *State) (Result, error)
}

// funcPass adapts a function to a Pass.
type funcPass struct {
	name string
	fn   func(*State) (Result, error)
}

func (p funcPass) Name() string                  { return p.name }
func (p funcPass) Run(st *State) (Result, error) { return p.fn(st) }

// NewPass wraps fn as a Pass with the given registered name. The name must
// have been registered (RegisterPass) so its fault point exists; NewPass
// registers it defensively for names only ever constructed at run time.
func NewPass(name string, fn func(*State) (Result, error)) Pass {
	RegisterPass(name)
	return funcPass{name: name, fn: fn}
}

// RegisterPass registers a pass name's "pipeline.<name>" fault point
// (idempotent) and returns it. Packages contributing passes register their
// names at init time so flag-time fault-spec validation (hqsd -faults)
// accepts them before any solve runs.
func RegisterPass(name string) faults.Point {
	pt := faultPoint(name)
	faults.Register(pt)
	return pt
}

// faultPoint returns the fault-injection point of a pass name.
func faultPoint(name string) faults.Point { return faults.Point("pipeline." + name) }
