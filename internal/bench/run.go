package bench

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/idq"
	"repro/internal/problem"
)

// SolverName identifies which solver produced a result.
type SolverName string

// The two competitors of the paper's evaluation.
const (
	SolverHQS SolverName = "HQS"
	SolverIDQ SolverName = "iDQ"
)

// Outcome classifies a run.
type Outcome int

// Run outcomes, mirroring the paper's solved / timeout / memout partition.
const (
	OutcomeSolved Outcome = iota
	OutcomeTimeout
	OutcomeMemout
)

func (o Outcome) String() string {
	switch o {
	case OutcomeSolved:
		return "solved"
	case OutcomeTimeout:
		return "TO"
	case OutcomeMemout:
		return "MO"
	default:
		return fmt.Sprintf("Outcome(%d)", int(o))
	}
}

// RunResult is the outcome of one solver on one instance.
type RunResult struct {
	Instance string
	Family   Family
	Solver   SolverName
	Outcome  Outcome
	Sat      bool
	Seconds  float64

	// HQS instrumentation for the in-text statistics (zero for iDQ).
	ElimSetSeconds  float64
	UnitPureSeconds float64

	// HQS SAT-sweeping substrate counters (zero for iDQ).
	SweepSatCalls  int
	SweepMerged    int
	ArenaPeakBytes int
	Compactions    int64

	// Persistent-oracle reuse counters (zero for iDQ).
	OracleQueries     int64
	OracleIncremental int64
	OracleRebuilds    int64
}

// RunOptions configure a benchmark campaign.
type RunOptions struct {
	// Timeout per instance and solver (the paper used 2 h).
	Timeout time.Duration
	// HQSNodeLimit bounds the AIG (the paper's 8 GB memory limit analogue).
	HQSNodeLimit int
	// IDQMaxInstantiations bounds the iDQ abstraction (its memout analogue).
	IDQMaxInstantiations int
	// HQSOptions configure the HQS solver (strategy ablations); its Budget
	// is replaced per solve by one built from the limits above.
	HQSOptions core.Options
	// Parallelism is the number of concurrent instance runs (0 = NumCPU).
	Parallelism int
}

// DefaultRunOptions give a laptop-scale campaign.
func DefaultRunOptions() RunOptions {
	return RunOptions{
		Timeout:              3 * time.Second,
		HQSNodeLimit:         2_000_000,
		IDQMaxInstantiations: 2_000_000,
		HQSOptions:           core.DefaultOptions(),
	}
}

// RunHQS runs HQS on one instance.
func RunHQS(inst Instance, opt RunOptions) RunResult {
	o := opt.HQSOptions
	o.Budget = budget.New(budget.Limits{Timeout: opt.Timeout, Nodes: opt.HQSNodeLimit})
	start := time.Now()
	res := core.New(o).Solve(problem.FromDQBF(inst.Formula))
	sw := res.Stats.Sweep
	sw.Add(res.Stats.QBF.Sweep)
	rr := RunResult{
		Instance:        inst.Name,
		Family:          inst.Family,
		Solver:          SolverHQS,
		Sat:             res.Sat,
		Seconds:         time.Since(start).Seconds(),
		ElimSetSeconds:  res.Stats.Pass("hqs", "elimset").Wall.Seconds(),
		UnitPureSeconds: res.Stats.Pass("hqs", "unitpure").Wall.Seconds(),
		SweepSatCalls:   sw.SatCalls,
		SweepMerged:     sw.Merged,
		ArenaPeakBytes:  sw.ArenaBytes,
		Compactions:     sw.Compactions,

		OracleQueries:     res.Stats.Oracle.Queries,
		OracleIncremental: res.Stats.Oracle.Incremental,
		OracleRebuilds:    res.Stats.Oracle.Rebuilds,
	}
	switch res.Status {
	case core.Solved:
		rr.Outcome = OutcomeSolved
	case core.Timeout:
		rr.Outcome = OutcomeTimeout
	case core.Memout:
		rr.Outcome = OutcomeMemout
	}
	return rr
}

// RunIDQ runs the iDQ baseline on one instance.
func RunIDQ(inst Instance, opt RunOptions) RunResult {
	start := time.Now()
	res := idq.New(idq.Options{
		MaxInstantiations: opt.IDQMaxInstantiations,
		Budget:            budget.New(budget.Limits{Timeout: opt.Timeout}),
	}).Solve(inst.Formula)
	rr := RunResult{
		Instance: inst.Name,
		Family:   inst.Family,
		Solver:   SolverIDQ,
		Sat:      res.Sat,
		Seconds:  time.Since(start).Seconds(),
	}
	switch res.Status {
	case idq.Solved:
		rr.Outcome = OutcomeSolved
	case idq.Timeout:
		rr.Outcome = OutcomeTimeout
	case idq.Memout:
		rr.Outcome = OutcomeMemout
	}
	return rr
}

// Campaign holds paired results per instance.
type Campaign struct {
	HQS map[string]RunResult
	IDQ map[string]RunResult
	// Order preserves instance enumeration order for stable output.
	Order []Instance
}

// Run executes both solvers on every instance, in parallel across instances.
func Run(instances []Instance, opt RunOptions) *Campaign {
	par := opt.Parallelism
	if par <= 0 {
		par = runtime.NumCPU()
	}
	c := &Campaign{
		HQS:   make(map[string]RunResult, len(instances)),
		IDQ:   make(map[string]RunResult, len(instances)),
		Order: instances,
	}
	var mu sync.Mutex
	sem := make(chan struct{}, par)
	var wg sync.WaitGroup
	for _, inst := range instances {
		wg.Add(1)
		go func(inst Instance) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			h := RunHQS(inst, opt)
			q := RunIDQ(inst, opt)
			mu.Lock()
			c.HQS[inst.Name] = h
			c.IDQ[inst.Name] = q
			mu.Unlock()
		}(inst)
	}
	wg.Wait()
	return c
}

// Disagreements returns instances both solvers solved with different
// verdicts — must be empty for sound solvers.
func (c *Campaign) Disagreements() []string {
	var out []string
	for _, inst := range c.Order {
		h, q := c.HQS[inst.Name], c.IDQ[inst.Name]
		if h.Outcome == OutcomeSolved && q.Outcome == OutcomeSolved && h.Sat != q.Sat {
			out = append(out, inst.Name)
		}
	}
	return out
}
