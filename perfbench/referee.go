package main

import (
	"fmt"
	"time"

	"repro/internal/budget"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/pec"
	"repro/internal/problem"
	"repro/internal/trace"
)

// hqsOptions is the configuration `hqs -cert` runs (one sweep worker, so the
// pass schedule is deterministic); allElim selects the referee
// configuration of `hqs -strategy all -no-sweep`.
func hqsOptions(allElim bool, timeout time.Duration, sink trace.Sink) core.Options {
	opt := core.DefaultOptions()
	opt.Certify = true
	opt.Workers = 1
	opt.Trace = sink
	if timeout > 0 {
		opt.Budget = budget.New(budget.Limits{Timeout: timeout})
	}
	if allElim {
		opt.Strategy = core.ElimAll
		opt.SweepThreshold = 0
		opt.QBF.SweepThreshold = 0
	}
	return opt
}

// referee decides an instance's expected verdict and names its source. A
// SAT verdict counts only with a certificate cert.Check accepts; an UNSAT
// verdict needs pec.BruteForceRealizable where the instance is small enough
// and agreement of two HQS configurations otherwise.
func referee(inst *Instance, timeout time.Duration) (verdict, source string, solveMS float64, err error) {
	p := problem.FromDQBF(inst.Formula)
	p.Format = inst.Format
	best := time.Duration(0)
	var res core.Result
	for i := 0; i < 3; i++ {
		start := time.Now()
		res = core.New(hqsOptions(false, timeout, nil)).Solve(p)
		if el := time.Since(start); i == 0 || el < best {
			best = el
		}
		if res.Status != core.Solved {
			return "", "", 0, fmt.Errorf("%s: hqs %v", inst.ID(), res.Status)
		}
	}
	solveMS = float64(best.Microseconds()) / 1000
	brute, bruteErr := bruteForce(inst)
	if res.Sat {
		if res.CertErr != nil {
			return "", "", 0, fmt.Errorf("%s: certificate extraction: %w", inst.ID(), res.CertErr)
		}
		if err := cert.Check(inst.Formula, res.Certificate); err != nil {
			return "", "", 0, fmt.Errorf("%s: certificate rejected: %w", inst.ID(), err)
		}
		if bruteErr == nil && !brute {
			return "", "", 0, fmt.Errorf("%s: hqs SAT with an accepted certificate, brute force unrealizable", inst.ID())
		}
		return "SAT", "certificate", solveMS, nil
	}
	if bruteErr == nil {
		if brute {
			return "", "", 0, fmt.Errorf("%s: hqs UNSAT, brute force realizable", inst.ID())
		}
		return "UNSAT", "pec.BruteForceRealizable", solveMS, nil
	}
	alt := core.New(hqsOptions(true, timeout, nil)).Solve(p)
	if alt.Status != core.Solved {
		return "", "", 0, fmt.Errorf("%s: referee configuration %v", inst.ID(), alt.Status)
	}
	if alt.Sat {
		return "", "", 0, fmt.Errorf("%s: hqs UNSAT, hqs -strategy all -no-sweep SAT", inst.ID())
	}
	return "UNSAT", "hqs-agreement", solveMS, nil
}

// bruteLimit bounds log2 of the brute-force enumeration (box table bits
// plus primary inputs) so that selection stays within seconds per instance.
const bruteLimit = 21

// bruteForce runs the PEC brute-force referee where it applies. Widened
// formulas and BENCH miters (whose free signals see every input) ask a
// different question than the circuit's PEC problem, and large instances
// exceed the enumeration bound; those cases return an error.
func bruteForce(inst *Instance) (bool, error) {
	if inst.Widened || inst.Family == "circuit" {
		return false, fmt.Errorf("%s: formula is not the PEC encoding", inst.ID())
	}
	bits := len(inst.PEC.Impl.Inputs)
	for _, b := range inst.PEC.Boxes {
		bits += len(b.Outputs) << len(b.Inputs)
	}
	if bits > bruteLimit {
		return false, fmt.Errorf("%s: brute force needs 2^%d evaluations", inst.ID(), bits)
	}
	return pec.BruteForceRealizable(inst.PEC)
}
