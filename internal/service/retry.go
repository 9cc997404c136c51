package service

import (
	"math/rand"
	"time"

	"repro/internal/budget"
)

// RetryPolicy bounds how hard the service fights transient failures before
// surfacing an Error verdict.
type RetryPolicy struct {
	// MaxAttempts is the number of runs per engine in the fallback chain,
	// including the first (default 2 = one retry per engine).
	MaxAttempts int
	// BaseDelay is the backoff before the first retry; each further retry
	// doubles it (default 5ms). Every delay gets ±50% uniform jitter so
	// retry storms from concurrent workers decorrelate.
	BaseDelay time.Duration
	// MaxDelay caps the backoff (default 250ms).
	MaxDelay time.Duration
}

func (p RetryPolicy) withDefaults() RetryPolicy {
	if p.MaxAttempts <= 0 {
		p.MaxAttempts = 2
	}
	if p.BaseDelay <= 0 {
		p.BaseDelay = 5 * time.Millisecond
	}
	if p.MaxDelay <= 0 {
		p.MaxDelay = 250 * time.Millisecond
	}
	return p
}

// backoff returns the jittered exponential delay before retry number n
// (0-based).
func (p RetryPolicy) backoff(n int) time.Duration {
	d := p.BaseDelay << uint(n)
	if d <= 0 || d > p.MaxDelay { // <= 0 guards shift overflow
		d = p.MaxDelay
	}
	// ±50% jitter.
	return d/2 + time.Duration(rand.Int63n(int64(d)+1))
}

// fallbackChain returns the engines tried for a job that requested eng, in
// order: the requested engine first, then the portfolio (which still
// includes the requested engine — a transiently failing engine may well win
// its rematch), then the iDQ baseline alone; the baseline itself is last,
// with nothing to fall back to.
func fallbackChain(eng Engine) []Engine {
	switch eng {
	case EngineHQS, EngineExpand:
		return []Engine{eng, EnginePortfolio, EngineIDQ}
	case EnginePortfolio, "":
		return []Engine{EnginePortfolio, EngineIDQ}
	default:
		return []Engine{EngineIDQ}
	}
}

// attemptDisposition classifies one engine outcome for the retry driver.
type attemptDisposition int

const (
	// dispositionFinal: a definitive verdict, or the budget is exhausted —
	// report as-is.
	dispositionFinal attemptDisposition = iota
	// dispositionRetry: a transient failure (panic, oracle error, or a
	// spurious Unknown while the budget still has headroom) — retry the same
	// engine after a backoff.
	dispositionRetry
	// dispositionFallback: this engine cannot answer within its own limits
	// (e.g. an AIG memout) although the job budget still has headroom —
	// skip straight to the next engine in the chain.
	dispositionFallback
)

func classify(out Outcome, b *budget.Budget) attemptDisposition {
	switch out.Verdict {
	case VerdictSat, VerdictUnsat:
		return dispositionFinal
	case VerdictError:
		if b.Stopped() {
			return dispositionFinal
		}
		return dispositionRetry
	}
	if b.Stopped() {
		return dispositionFinal
	}
	switch out.Reason {
	case "memout", "timeout":
		// An engine-local resource limit with job budget to spare: retrying
		// the same engine deterministically hits the same wall, but another
		// engine may not (iDQ has no AIG node cap, HQS no instantiation cap).
		return dispositionFallback
	default:
		// Unknown without a budget cause: the engine gave up for no reason
		// the budget can explain (e.g. an injected spurious Unknown).
		return dispositionRetry
	}
}

// solve decides req with retry and engine fallback: each engine in
// fallbackChain(req.Engine) is attempted up to pol.MaxAttempts times with
// exponential backoff and jitter between attempts, transient failures
// (panics, oracle errors, unexplained Unknowns) trigger retries, and
// engine-local resource exhaustion falls through to the next engine. The
// returned outcome carries the total attempt count and fallback depth. This
// is the attempt loop behind Scheduler.Submit; observe, when non-nil, sees
// every attempt (the scheduler meters retries and contained panics with it)
// and req.Trace every pass of every HQS attempt, so a job's trace shows the
// full attempt history, not just the final run.
func (r *Runner) solve(b *budget.Budget, req Request, pol RetryPolicy, observe func(Outcome)) Outcome {
	pol = pol.withDefaults()
	if _, err := ParseEngine(string(req.Engine)); err != nil {
		return Outcome{Verdict: VerdictError, Reason: "error", Error: err.Error(), Attempts: 0}
	}
	chain := fallbackChain(req.Engine)
	attempts := 0
	var last Outcome
	for ci, e := range chain {
		for a := 0; a < pol.MaxAttempts; a++ {
			if b.Stopped() && attempts > 0 {
				// Budget gone between attempts: report the stop, preserving
				// the failure detail of the last attempt for the record.
				last.Attempts = attempts
				last.Fallbacks = ci
				return last
			}
			attempts++
			out := r.attempt(req.Problem, e, b, req.Trace)
			out.Attempts = attempts
			out.Fallbacks = ci
			out.Conflicts = b.ConflictsUsed()
			out.Decisions = b.DecisionsUsed()
			if observe != nil {
				observe(out)
			}
			last = out
			switch classify(out, b) {
			case dispositionFinal:
				return out
			case dispositionFallback:
				a = pol.MaxAttempts // break attempt loop, next engine
			case dispositionRetry:
				if a+1 < pol.MaxAttempts || ci+1 < len(chain) {
					sleepBudget(b, pol.backoff(a))
				}
			}
		}
	}
	return last
}

// sleepBudget sleeps for d but returns early when the budget stops, so a
// cancellation is not delayed by a backoff.
func sleepBudget(b *budget.Budget, d time.Duration) {
	if d <= 0 {
		return
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
	case <-b.Done():
	}
}
