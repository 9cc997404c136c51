package pipeline

import (
	"slices"

	"repro/internal/aig"
	"repro/internal/cnf"
)

// Pass names shared by the main loop and the linear phase of HQS,
// registered at init so fault-spec validation knows them before any solve
// runs.
var (
	unitPurePoint    = RegisterPass("unitpure")
	dropSupportPoint = RegisterPass("dropsupport")
	sweepPoint       = RegisterPass("sweep")
)

// UnitPurePass applies the paper's Theorems 5 and 6 — unit and pure literal
// elimination directly on the AIG — until a fixpoint. The main loop and the
// linear phase both run it; the state's formula supplies the quantifiers.
//
// Variables are considered in ascending order, so the elimination sequence
// (and therefore the resulting AIG) is deterministic.
type UnitPurePass struct{}

// Name implements Pass.
func (UnitPurePass) Name() string { return "unitpure" }

// Run implements Pass. A universal unit literal falsifies the formula
// (matrix set to constant false); otherwise units and pures are cofactored
// out and removed from the prefix, recomputing the unit/pure flags after
// every elimination. Stop is polled between fixpoint rounds.
func (UnitPurePass) Run(st *State) (Result, error) {
	var units, pures int64
	changed := false
	// result reports the eliminations made so far; every return goes
	// through it.
	result := func(err error) (Result, error) {
		res := Result{Changed: changed}
		if units > 0 || pures > 0 {
			res.Counters = Counters{"units": units, "pures": pures}
		}
		return res, err
	}
	for {
		if err := st.Stop(); err != nil {
			return result(err)
		}
		up := st.G.UnitPure(st.Matrix)
		vars := make([]cnf.Var, 0, len(up))
		for v := range up {
			vars = append(vars, v)
		}
		slices.Sort(vars)
		univSet := st.Prefix.UniversalSet()
		eliminated := false
		for _, v := range vars {
			p := up[v]
			exist := st.Prefix.IsExistential(v)
			univ := univSet.Has(v)
			if !exist && !univ {
				continue // gate-defined or already removed
			}
			switch {
			case exist && p.PosUnit:
				st.Cert.RecordConst(v, true)
				st.Matrix = st.G.Cofactor(st.Matrix, v, true)
				units++
			case exist && p.NegUnit:
				st.Cert.RecordConst(v, false)
				st.Matrix = st.G.Cofactor(st.Matrix, v, false)
				units++
			case univ && (p.PosUnit || p.NegUnit):
				// A universal unit means the opposite value falsifies the
				// matrix: the formula is false.
				st.Matrix = aig.False
				changed = true
				return result(nil)
			case exist && p.PosPure:
				st.Cert.RecordConst(v, true)
				st.Matrix = st.G.Cofactor(st.Matrix, v, true)
				pures++
			case exist && p.NegPure:
				st.Cert.RecordConst(v, false)
				st.Matrix = st.G.Cofactor(st.Matrix, v, false)
				pures++
			case univ && p.PosPure:
				st.Matrix = st.G.Cofactor(st.Matrix, v, false)
				pures++
			case univ && p.NegPure:
				st.Matrix = st.G.Cofactor(st.Matrix, v, true)
				pures++
			default:
				continue
			}
			st.Prefix.Remove(v)
			eliminated, changed = true, true
			if st.Matrix.IsConst() {
				return result(nil)
			}
			break // recompute unit/pure flags on the new matrix
		}
		if !eliminated {
			return result(nil)
		}
	}
}

// DropSupportPass removes prefix variables the matrix no longer depends on.
type DropSupportPass struct{}

// Name implements Pass.
func (DropSupportPass) Name() string { return "dropsupport" }

// Run implements Pass.
func (DropSupportPass) Run(st *State) (Result, error) {
	removed := st.Prefix.RetainSupport(st.G.Support(st.Matrix))
	if removed == 0 {
		return Result{}, nil
	}
	return Result{Changed: true, Counters: Counters{"removed": int64(removed)}}, nil
}

// SweepPass compresses the matrix cone by SAT sweeping (FRAIG reduction)
// whenever it has grown past the threshold since the last sweep. A run
// below the threshold is a traced no-op.
type SweepPass struct {
	// Threshold is the cone growth (in AND nodes) that triggers a sweep;
	// <= 0 disables sweeping.
	Threshold int
	// Opt configures individual sweeps; the state's budget and oracle pool
	// are threaded in per run.
	Opt aig.SweepOptions

	lastSize int
	sweeps   int
	stats    aig.SweepStats
}

// NewSweepPass returns a sweep pass with the given trigger threshold and
// sweep options.
func NewSweepPass(threshold int, opt aig.SweepOptions) *SweepPass {
	return &SweepPass{Threshold: threshold, Opt: opt, lastSize: -1}
}

// Reset sets the cone-size baseline growth is measured against (drivers
// call it once the matrix is built; otherwise the first Run self-baselines).
func (p *SweepPass) Reset(size int) { p.lastSize = size }

// Name implements Pass.
func (p *SweepPass) Name() string { return "sweep" }

// Run implements Pass.
func (p *SweepPass) Run(st *State) (Result, error) {
	if p.Threshold <= 0 {
		return Result{}, nil
	}
	size := st.G.ConeSize(st.Matrix)
	if p.lastSize < 0 {
		p.lastSize = size
	}
	if size <= p.lastSize+p.Threshold {
		return Result{}, nil
	}
	so := p.Opt
	so.Budget = st.Budget
	so.Oracles = st.Oracle
	m, sst := st.G.Sweep(st.Matrix, so)
	st.Matrix = m
	p.sweeps++
	p.stats.Add(sst)
	p.lastSize = st.G.ConeSize(m)
	return Result{Changed: true, Counters: Counters(sst.Counters())}, nil
}

// Stats returns how many sweeps ran and their aggregated counters.
func (p *SweepPass) Stats() (int, aig.SweepStats) { return p.sweeps, p.stats }
