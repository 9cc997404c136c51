// Package faults is a fault-injection framework for the solver stack. It
// defines named injection points at the seams where production failures
// happen — oracle calls, sweeps, scheduler dispatch, cache lookups — and
// lets tests (or a chaos-minded operator) arm them with deterministic or
// probabilistic actions: panic, artificial latency, a spurious Unknown, or
// an error return.
//
// The package holds no armed state. A Plan is a value owned by the object
// whose seams it drives: the budget of a solve carries one into every
// engine seam (budget.Limits.Faults), the scheduler's config into dispatch,
// cache and certify (service.Config.Faults), and the store's options into
// its disk paths (store.Options.Faults). Two schedulers in one process can
// therefore run different plans. Every instrumented site calls Fire on the
// plan it owns, which is a single nil check when no plan is armed.
//
// Point naming follows "<package>.<operation>" so a plan spec reads like a
// stack trace: "sat.solve:panic:p=0.1" arms a 10% panic on every CDCL
// oracle call.
package faults

import (
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"
)

// Point names an injection site. Instrumented code passes its Point to Fire;
// plans arm rules per point.
type Point string

const (
	// SATSolve fires at the entry of every CDCL oracle call
	// (sat.Solver.Solve and variants) — the busiest seam in the stack.
	SATSolve Point = "sat.solve"
	// AIGSweep fires at the entry of a FRAIG-style sweep (aig.Graph.Sweep).
	AIGSweep Point = "aig.sweep"
	// AIGFinalSAT fires before the linear phase's final SAT shortcut on the
	// outermost existential block.
	AIGFinalSAT Point = "aig.finalsat"
	// MaxSATSolve fires at the entry of the partial MaxSAT oracle that
	// selects the universal elimination set.
	MaxSATSolve Point = "maxsat.solve"
	// QBFEliminate fires once per QBF block-elimination step.
	QBFEliminate Point = "qbf.eliminate"
	// SchedDispatch fires when a scheduler worker picks up a job, before any
	// engine runs.
	SchedDispatch Point = "sched.dispatch"
	// CacheLookup fires on every result-cache lookup.
	CacheLookup Point = "cache.lookup"
	// CertVerify fires before a Skolem-certificate verification in the
	// service runners; an injected error simulates a corrupted certificate.
	CertVerify Point = "service.certify"
	// StoreRead fires on every persistent-store entry read; an injected
	// error simulates a failing disk (EIO, vanished mount) on the read path.
	StoreRead Point = "store.read"
	// StoreWrite fires on every persistent-store entry write, before the
	// temp file is created; an injected error simulates a full or failing
	// disk on the write path.
	StoreWrite Point = "store.write"
	// StoreCorrupt fires after an entry's bytes are read but before they are
	// decoded; a firing rule makes the store flip a bit in the payload, so
	// the real checksum/quarantine machinery runs against real corruption.
	StoreCorrupt Point = "store.corrupt"
	// ProblemParse fires before hqsd parses a request body; an injected
	// error simulates a parser failure that must degrade to a clean 400,
	// never a panic.
	ProblemParse Point = "problem.parse"
	// PQESolve fires at the entry of a partial-quantifier-elimination query
	// (pqe.Solve) before any SAT call runs.
	PQESolve Point = "pqe.solve"
)

// builtinPoints are the statically defined injection points.
var builtinPoints = []Point{SATSolve, AIGSweep, AIGFinalSAT, MaxSATSolve,
	QBFEliminate, SchedDispatch, CacheLookup, CertVerify,
	StoreRead, StoreWrite, StoreCorrupt, ProblemParse, PQESolve}

// registry holds dynamically registered points (pipeline passes register
// one "pipeline.<pass>" point each at init time).
var registry struct {
	mu     sync.Mutex
	points []Point
	seen   map[Point]bool
}

// Register adds a dynamic injection point (idempotent). Subsystems that
// instrument new seams at init time — pipeline passes in particular —
// register them here so spec validation and the chaos harness see them.
func Register(pt Point) {
	registry.mu.Lock()
	defer registry.mu.Unlock()
	if registry.seen == nil {
		registry.seen = make(map[Point]bool)
	}
	for _, b := range builtinPoints {
		if b == pt {
			return
		}
	}
	if registry.seen[pt] {
		return
	}
	registry.seen[pt] = true
	registry.points = append(registry.points, pt)
}

// Points lists every defined injection point — builtin and registered — for
// validation and docs. Registered points are sorted for stable output.
func Points() []Point {
	registry.mu.Lock()
	reg := append([]Point(nil), registry.points...)
	registry.mu.Unlock()
	sort.Slice(reg, func(i, j int) bool { return reg[i] < reg[j] })
	return append(append([]Point(nil), builtinPoints...), reg...)
}

// ErrInjected is the base error of every injected failure; injected errors
// satisfy errors.Is(err, ErrInjected).
var ErrInjected = errors.New("faults: injected failure")

// ErrUnknown is the injected error directing the caller to give up with a
// spurious Unknown verdict instead of failing hard.
var ErrUnknown = fmt.Errorf("%w: spurious unknown", ErrInjected)

// PanicValue is the value thrown by a panic action, so recover sites can
// recognize injected panics in tests.
type PanicValue struct{ Point Point }

func (p PanicValue) String() string {
	return fmt.Sprintf("faults: injected panic at %s", p.Point)
}

// Action selects what an armed rule does when it fires.
type Action int

const (
	// ActPanic panics with a PanicValue.
	ActPanic Action = iota
	// ActLatency sleeps for Rule.Latency and reports no fault.
	ActLatency
	// ActUnknown returns ErrUnknown (spurious Unknown verdict).
	ActUnknown
	// ActError returns Rule.Err (ErrInjected if unset).
	ActError
)

func (a Action) String() string {
	switch a {
	case ActPanic:
		return "panic"
	case ActLatency:
		return "latency"
	case ActUnknown:
		return "unknown"
	case ActError:
		return "error"
	default:
		return fmt.Sprintf("Action(%d)", int(a))
	}
}

// Rule arms one point with one action and a trigger. A rule with Prob > 0 is
// probabilistic (fires on each hit with that probability, from the plan's
// seeded generator); otherwise it is deterministic on hit counts.
type Rule struct {
	Point  Point
	Action Action
	// Prob, when in (0, 1], makes the rule probabilistic.
	Prob float64
	// EveryN makes a deterministic rule fire on every Nth hit (1 = every
	// hit; 0 defaults to 1).
	EveryN uint64
	// After skips the first After hits before the rule may fire.
	After uint64
	// Times caps the number of fires (0 = unlimited).
	Times uint64
	// Latency is the sleep of an ActLatency rule.
	Latency time.Duration
	// Err overrides the error of an ActError rule.
	Err error
}

// PointStats counts activity at one point.
type PointStats struct {
	// Hits is how many times the point was reached by a seam firing this
	// plan; Fires is how many times a rule acted.
	Hits, Fires uint64
}

type armedRule struct {
	Rule
	hits, fires uint64
}

// Plan is an armed, concurrency-safe set of rules with per-point counters
// and a deterministically seeded generator for probabilistic rules.
type Plan struct {
	mu       sync.Mutex
	rng      uint64
	rules    map[Point][]*armedRule
	hits     map[Point]uint64
	disarmed bool
}

// NewPlan builds a plan from rules. The seed drives every probabilistic
// decision, so a chaos run is reproducible bit-for-bit given the same
// interleaving of hits.
func NewPlan(seed int64, rules ...Rule) *Plan {
	p := &Plan{
		rng:   uint64(seed)*0x9e3779b97f4a7c15 + 0x2545f4914f6cdd1d,
		rules: make(map[Point][]*armedRule),
		hits:  make(map[Point]uint64),
	}
	for _, r := range rules {
		if r.EveryN == 0 {
			r.EveryN = 1
		}
		p.rules[r.Point] = append(p.rules[r.Point], &armedRule{Rule: r})
	}
	return p
}

// next is an xorshift64* step; caller holds p.mu.
func (p *Plan) next() uint64 {
	x := p.rng
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	p.rng = x
	return x * 0x2545f4914f6cdd1d
}

// fire evaluates the plan at pt and returns the first firing rule, if any.
func (p *Plan) fire(pt Point) *armedRule {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.hits[pt]++
	if p.disarmed {
		return nil
	}
	for _, r := range p.rules[pt] {
		r.hits++
		if r.Times > 0 && r.fires >= r.Times {
			continue
		}
		if r.hits <= r.After {
			continue
		}
		if r.Prob > 0 {
			if float64(p.next()>>11)/(1<<53) >= r.Prob {
				continue
			}
		} else if (r.hits-r.After)%r.EveryN != 0 {
			continue
		}
		r.fires++
		return r
	}
	return nil
}

// Disarm stops every rule of p from firing from now on; hits are still
// counted. A drill uses it to check, on the owner it faulted, that the
// stack recovers once the faults are gone.
func (p *Plan) Disarm() {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.disarmed = true
}

// Snapshot returns per-point hit/fire counters.
func (p *Plan) Snapshot() map[Point]PointStats {
	p.mu.Lock()
	defer p.mu.Unlock()
	out := make(map[Point]PointStats, len(p.hits))
	for pt, h := range p.hits {
		st := PointStats{Hits: h}
		for _, r := range p.rules[pt] {
			st.Fires += r.fires
		}
		out[pt] = st
	}
	return out
}

// Fires returns the total fire count at pt.
func (p *Plan) Fires(pt Point) uint64 { return p.Snapshot()[pt].Fires }

// Fire is the hook instrumented code calls at each injection point of the
// plan it owns. A nil plan is off and costs one nil check. Otherwise Fire
// may sleep (latency action) or panic (panic action) before returning; a
// non-nil return is either ErrUnknown (give up with a spurious Unknown) or
// an injected error the caller should propagate as a failure.
func (p *Plan) Fire(pt Point) error {
	if p == nil {
		return nil
	}
	return p.act(pt)
}

// act is Fire on an armed plan, kept out of Fire so the nil check inlines
// into every seam.
func (p *Plan) act(pt Point) error {
	r := p.fire(pt)
	if r == nil {
		return nil
	}
	switch r.Action {
	case ActPanic:
		panic(PanicValue{Point: pt})
	case ActLatency:
		time.Sleep(r.Latency)
		return nil
	case ActUnknown:
		return ErrUnknown
	case ActError:
		if r.Err != nil {
			return fmt.Errorf("%w: %w at %s", ErrInjected, r.Err, pt)
		}
		return fmt.Errorf("%w at %s", ErrInjected, pt)
	}
	return nil
}
