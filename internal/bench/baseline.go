package bench

import (
	"encoding/json"
	"os"
	"sort"
	"time"
)

// BaselineRow summarizes one (family, solver) cell of a campaign.
type BaselineRow struct {
	Family    string  `json:"family"`
	Solver    string  `json:"solver"`
	Instances int     `json:"instances"`
	Solved    int     `json:"solved"`
	Timeouts  int     `json:"timeouts"`
	Memouts   int     `json:"memouts"`
	TotalSec  float64 `json:"total_seconds"`
	MeanSec   float64 `json:"mean_seconds"`
	MaxSec    float64 `json:"max_seconds"`

	// Persistent-oracle reuse per family (HQS rows only; omitted for iDQ).
	OracleQueries     int64 `json:"oracle_queries,omitempty"`
	OracleIncremental int64 `json:"oracle_incremental,omitempty"`
}

// Baseline is a machine-readable snapshot of a campaign, committed to the
// repo (BENCH_pr*.json) so that later changes can be compared against it.
type Baseline struct {
	CreatedAt string        `json:"created_at"`
	Timeout   string        `json:"timeout"`
	Rows      []BaselineRow `json:"rows"`

	// Aggregated HQS sweep instrumentation across all instances.
	SweepSatCalls  int   `json:"sweep_sat_calls"`
	SweepMerged    int   `json:"sweep_merged"`
	ArenaPeakBytes int   `json:"arena_peak_bytes"`
	Compactions    int64 `json:"arena_compactions"`

	// Aggregated persistent-oracle reuse across all HQS instances.
	OracleQueries     int64 `json:"oracle_queries"`
	OracleIncremental int64 `json:"oracle_incremental"`
	OracleRebuilds    int64 `json:"oracle_rebuilds"`
}

// ComputeBaseline folds a campaign into baseline rows, one per (family,
// solver) pair, in deterministic family order.
func ComputeBaseline(c *Campaign, opt RunOptions) Baseline {
	type key struct {
		family Family
		solver SolverName
	}
	acc := make(map[key]*BaselineRow)
	order := []key{}
	add := func(rr RunResult) {
		k := key{rr.Family, rr.Solver}
		row, ok := acc[k]
		if !ok {
			row = &BaselineRow{Family: string(rr.Family), Solver: string(rr.Solver)}
			acc[k] = row
			order = append(order, k)
		}
		row.Instances++
		switch rr.Outcome {
		case OutcomeSolved:
			row.Solved++
		case OutcomeTimeout:
			row.Timeouts++
		case OutcomeMemout:
			row.Memouts++
		}
		row.TotalSec += rr.Seconds
		if rr.Seconds > row.MaxSec {
			row.MaxSec = rr.Seconds
		}
		row.OracleQueries += rr.OracleQueries
		row.OracleIncremental += rr.OracleIncremental
	}
	b := Baseline{
		CreatedAt: time.Now().UTC().Format(time.RFC3339),
		Timeout:   opt.Timeout.String(),
	}
	for _, inst := range c.Order {
		h := c.HQS[inst.Name]
		add(h)
		add(c.IDQ[inst.Name])
		b.SweepSatCalls += h.SweepSatCalls
		b.SweepMerged += h.SweepMerged
		b.Compactions += h.Compactions
		b.OracleQueries += h.OracleQueries
		b.OracleIncremental += h.OracleIncremental
		b.OracleRebuilds += h.OracleRebuilds
		if h.ArenaPeakBytes > b.ArenaPeakBytes {
			b.ArenaPeakBytes = h.ArenaPeakBytes
		}
	}
	sort.SliceStable(order, func(i, j int) bool {
		if order[i].family != order[j].family {
			return order[i].family < order[j].family
		}
		return order[i].solver < order[j].solver
	})
	for _, k := range order {
		row := acc[k]
		if row.Instances > 0 {
			row.MeanSec = row.TotalSec / float64(row.Instances)
		}
		b.Rows = append(b.Rows, *row)
	}
	return b
}

// WriteBaseline writes the baseline as indented JSON.
func WriteBaseline(path string, b Baseline) error {
	data, err := json.MarshalIndent(b, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}
