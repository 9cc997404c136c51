// Package budget provides a cancellable resource budget shared by every
// solver core in this repository.
//
// A *Budget carries a wall-clock deadline, caps on CDCL conflicts and
// decisions, a cap on AIG nodes, and an explicit cancellation signal. The
// solver loops — the CDCL search loop, the MaxSAT linear search, the QBF
// block-elimination loop, HQS's main elimination loop, and iDQ's
// instantiation loop — poll the budget and unwind with a clean
// Unknown/Timeout/Cancelled verdict instead of running forever.
//
// The budget doubles as a resource meter: the SAT substrate reports the
// conflicts and decisions it spends into the budget, so a job scheduler can
// read per-job totals after (or during) a solve. All methods are safe for
// concurrent use and are nil-safe: a nil *Budget means "unlimited", so
// callers thread budgets unconditionally.
//
// Because every engine seam already holds the budget of its solve, the
// budget also carries the solve's fault-injection plan (Limits.Faults):
// each seam fires b.Faults(), which is nil — injection off — unless the
// owner of the solve armed one.
package budget

import (
	"errors"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/faults"
)

// Sentinel errors reported by Err, ordered by precedence.
var (
	// ErrCancelled means Cancel was called.
	ErrCancelled = errors.New("budget: cancelled")
	// ErrDeadline means the wall-clock deadline passed.
	ErrDeadline = errors.New("budget: deadline exceeded")
	// ErrConflicts means the conflict cap was exhausted.
	ErrConflicts = errors.New("budget: conflict cap exhausted")
	// ErrDecisions means the decision cap was exhausted.
	ErrDecisions = errors.New("budget: decision cap exhausted")
)

// Limits declares the resource caps of a budget; zero values mean unlimited.
type Limits struct {
	// Timeout, when nonzero, sets the deadline to now+Timeout at New.
	Timeout time.Duration
	// Deadline, when nonzero, bounds wall-clock time (combined with Timeout,
	// the earlier one wins).
	Deadline time.Time
	// Conflicts caps the total CDCL conflicts spent across every SAT call.
	Conflicts int64
	// Decisions caps the total CDCL decisions spent across every SAT call.
	Decisions int64
	// Nodes caps the AIG size (the analogue of a memory limit).
	Nodes int
	// Faults, when non-nil, is the fault-injection plan every engine seam
	// under this budget fires; nil means no faults.
	Faults *faults.Plan
}

// Budget is a shared, cancellable resource budget. Use New; the zero value
// works but has no deadline, caps, or usable Done channel.
type Budget struct {
	deadline     time.Time
	maxConflicts int64
	maxDecisions int64
	maxNodes     int
	faults       *faults.Plan

	done       chan struct{}
	cancelOnce sync.Once

	conflicts atomic.Int64
	decisions atomic.Int64
}

// New returns a budget enforcing the given limits.
func New(l Limits) *Budget {
	b := &Budget{
		deadline:     l.Deadline,
		maxConflicts: l.Conflicts,
		maxDecisions: l.Decisions,
		maxNodes:     l.Nodes,
		faults:       l.Faults,
		done:         make(chan struct{}),
	}
	if l.Timeout > 0 {
		d := time.Now().Add(l.Timeout)
		if b.deadline.IsZero() || d.Before(b.deadline) {
			b.deadline = d
		}
	}
	return b
}

// WithTimeout returns a budget limited only by wall-clock time; d <= 0 means
// no deadline (but the budget is still cancellable).
func WithTimeout(d time.Duration) *Budget {
	if d <= 0 {
		return New(Limits{})
	}
	return New(Limits{Timeout: d})
}

// NodeCap returns the AIG node cap (0 if none). Nil-safe.
func (b *Budget) NodeCap() int {
	if b == nil {
		return 0
	}
	return b.maxNodes
}

// Faults returns the fault-injection plan of the budget (nil if none).
// Nil-safe, so a seam can fire b.Faults() on any budget.
func (b *Budget) Faults() *faults.Plan {
	if b == nil {
		return nil
	}
	return b.faults
}

// Cancel requests cancellation. It is idempotent and safe to call from any
// goroutine; a nil budget ignores it.
func (b *Budget) Cancel() {
	if b == nil || b.done == nil {
		return
	}
	b.cancelOnce.Do(func() { close(b.done) })
}

// Done returns a channel closed on Cancel. A nil budget (or one not built
// with New) returns nil, which blocks forever in a select.
func (b *Budget) Done() <-chan struct{} {
	if b == nil {
		return nil
	}
	return b.done
}

// Cancelled reports whether Cancel has been called. Nil-safe.
func (b *Budget) Cancelled() bool {
	if b == nil || b.done == nil {
		return false
	}
	select {
	case <-b.done:
		return true
	default:
		return false
	}
}

// AddConflicts records n CDCL conflicts spent against the budget. Nil-safe.
func (b *Budget) AddConflicts(n int64) {
	if b != nil && n != 0 {
		b.conflicts.Add(n)
	}
}

// AddDecisions records n CDCL decisions spent against the budget. Nil-safe.
func (b *Budget) AddDecisions(n int64) {
	if b != nil && n != 0 {
		b.decisions.Add(n)
	}
}

// ConflictsUsed returns the total conflicts recorded so far. Nil-safe.
func (b *Budget) ConflictsUsed() int64 {
	if b == nil {
		return 0
	}
	return b.conflicts.Load()
}

// DecisionsUsed returns the total decisions recorded so far. Nil-safe.
func (b *Budget) DecisionsUsed() int64 {
	if b == nil {
		return 0
	}
	return b.decisions.Load()
}

// Err returns the first exhausted constraint (ErrCancelled, ErrDeadline,
// ErrConflicts, ErrDecisions) or nil if the budget still has headroom.
// Nil-safe: a nil budget never stops.
func (b *Budget) Err() error {
	if b == nil {
		return nil
	}
	if b.Cancelled() {
		return ErrCancelled
	}
	if !b.deadline.IsZero() && time.Now().After(b.deadline) {
		return ErrDeadline
	}
	if b.maxConflicts > 0 && b.conflicts.Load() >= b.maxConflicts {
		return ErrConflicts
	}
	if b.maxDecisions > 0 && b.decisions.Load() >= b.maxDecisions {
		return ErrDecisions
	}
	return nil
}

// Stopped reports whether any constraint is exhausted. Nil-safe.
func (b *Budget) Stopped() bool { return b.Err() != nil }

// Child returns a fresh budget with the same deadline, caps and fault plan
// but an independent cancellation signal and usage counters. Portfolio
// racing gives each engine a child so the loser can be cancelled without
// stopping the winner, and every arm keeps the plan; the caller folds the
// children's usage back with AddConflicts / AddDecisions. A nil receiver
// yields an unlimited (but cancellable) child.
func (b *Budget) Child() *Budget {
	if b == nil {
		return New(Limits{})
	}
	return New(Limits{
		Deadline:  b.deadline,
		Conflicts: b.maxConflicts,
		Decisions: b.maxDecisions,
		Nodes:     b.maxNodes,
		Faults:    b.faults,
	})
}
