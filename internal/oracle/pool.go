package oracle

import (
	"sync"

	"repro/internal/aig"
	"repro/internal/maxsat"
)

// Pool owns every incremental SAT instance of one pipeline run over one
// AIG: the main oracle (final SAT check, certificate-style queries) and the
// guarded MaxSAT backend used by the elimination-set selections, which both
// persist for the whole solve, and the sweep oracle, which lives for one
// sweep. It is created by the core build pass, lives on pipeline.State for
// the lifetime of the solve, and is shared with the QBF backend (which
// operates on the same graph).
//
// Oracles are created lazily: a run that never sweeps never pays for a
// sweep oracle. The pool's accessors are goroutine-safe; the returned
// oracles are single-goroutine.
type Pool struct {
	g *aig.Graph

	mu      sync.Mutex
	main    *Oracle
	sweep   *Oracle
	retired Stats // folded counters of the sweep oracles of earlier sweeps
	mx      *maxsat.Backend
}

// NewPool returns an empty pool over g.
func NewPool(g *aig.Graph) *Pool { return &Pool{g: g} }

// Main returns the pool's main oracle, creating it on first use.
func (p *Pool) Main() *Oracle {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.main == nil {
		p.main = New(p.g)
	}
	return p.main
}

// Oracle implements aig.SweepOraclePool: it returns the current sweep's
// oracle, creating it on first use.
func (p *Pool) Oracle() aig.SweepOracle {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sweep == nil {
		p.sweep = New(p.g)
	}
	return p.sweep
}

// Retire implements aig.SweepOraclePool: it folds the sweep oracle's
// counters into the pool's stats and drops the oracle, so the next sweep
// encodes only its own cone on a fresh solver.
func (p *Pool) Retire() {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.sweep != nil {
		p.retired.Add(p.sweep.Stats())
	}
	p.sweep = nil
}

// MaxSATBackend returns the pool's persistent guarded MaxSAT substrate,
// creating it on first use.
func (p *Pool) MaxSATBackend() *maxsat.Backend {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.mx == nil {
		p.mx = maxsat.NewBackend()
	}
	return p.mx
}

// Stats aggregates the reuse counters of every instance the pool has
// held, retired sweep oracles included (sums for flows, one rebuild per
// oracle, maxima for high-water marks).
func (p *Pool) Stats() Stats {
	p.mu.Lock()
	defer p.mu.Unlock()
	st := p.retired
	if p.main != nil {
		st.Add(p.main.Stats())
	}
	if p.sweep != nil {
		st.Add(p.sweep.Stats())
	}
	if p.mx != nil {
		st.Rebuilds++
		st.Scopes += p.mx.Scopes
		st.Queries += p.mx.Queries
		if p.mx.Queries > 0 {
			st.Incremental += p.mx.Queries - 1
		}
		if n := int64(p.mx.S.NumLearnts()); n > st.LearntsRetained {
			st.LearntsRetained = n
		}
		if ab := int64(p.mx.S.ArenaBytes()); ab > st.ArenaBytesHW {
			st.ArenaBytesHW = ab
		}
	}
	return st
}
