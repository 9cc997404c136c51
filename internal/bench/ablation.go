package bench

import (
	"fmt"
	"sort"
	"strings"
	"time"

	"repro/internal/budget"
	"repro/internal/core"
	"repro/internal/problem"
	"repro/internal/trace"
)

// AblationVariant is one HQS configuration under study.
type AblationVariant struct {
	Name string
	Opt  core.Options
}

// AblationVariants returns the design-choice ablations DESIGN.md calls out:
// the elimination-set strategy (paper MaxSAT vs greedy vs eliminate-all),
// the copy-cost ordering, unit/pure detection, SAT sweeping, and CNF
// preprocessing.
func AblationVariants() []AblationVariant {
	mk := func(name string, mut func(*core.Options)) AblationVariant {
		o := core.DefaultOptions()
		mut(&o)
		return AblationVariant{Name: name, Opt: o}
	}
	return []AblationVariant{
		mk("default(maxsat)", func(o *core.Options) {}),
		mk("elimset=greedy", func(o *core.Options) { o.Strategy = core.ElimGreedy }),
		mk("elimset=all", func(o *core.Options) { o.Strategy = core.ElimAll }),
		mk("order=reverse", func(o *core.Options) { o.ReverseElimOrder = true }),
		mk("unitpure=off", func(o *core.Options) { o.UnitPure = false }),
		mk("sweep=off", func(o *core.Options) { o.SweepThreshold = 0; o.QBF.SweepThreshold = 0 }),
		mk("preprocess=off", func(o *core.Options) { o.Preprocess = false; o.DetectGates = false }),
	}
}

// AblationRow aggregates one variant over an instance set.
type AblationRow struct {
	Name         string
	Solved       int
	Timeouts     int
	Memouts      int
	TotalSeconds float64 // over solved instances
	// PeakNodesSum sums the peak AIG node count over solved instances only:
	// a timed-out or memout solve's peak is wherever the budget stopped it,
	// which moves with machine speed and the node cap.
	PeakNodesSum int
	// OracleQueries / OracleIncremental sum the persistent-oracle reuse
	// counters over every instance: how many SAT queries the variant issued
	// and how many of them reused a live solver instead of rebuilding one.
	OracleQueries     int64
	OracleIncremental int64
	// PassSeconds is the per-pass wall-time breakdown summed over every
	// instance, keyed "stage/pass" ("hqs/thm1", "qbf/sweep", ...) — where a
	// variant's time goes, not just how much of it.
	PassSeconds map[string]float64
}

// RunAblation runs every variant over the instances sequentially (one
// variant at a time, so timings are comparable), each solve under a fresh
// budget of the given timeout and node cap. Every solve runs with a trace
// recorder so each row also carries its per-pass time breakdown.
func RunAblation(instances []Instance, variants []AblationVariant, timeout time.Duration, nodeLimit int) []AblationRow {
	var rows []AblationRow
	for _, v := range variants {
		row := AblationRow{Name: v.Name, PassSeconds: make(map[string]float64)}
		opt := v.Opt
		for _, inst := range instances {
			rec := trace.NewRecorder(0)
			opt.Trace = rec
			opt.Budget = budget.New(budget.Limits{Timeout: timeout, Nodes: nodeLimit})
			start := time.Now()
			res := core.New(opt).Solve(problem.FromDQBF(inst.Formula))
			sec := time.Since(start).Seconds()
			switch res.Status {
			case core.Solved:
				row.Solved++
				row.TotalSeconds += sec
				row.PeakNodesSum += res.Stats.PeakAIGNodes
			case core.Timeout:
				row.Timeouts++
			case core.Memout:
				row.Memouts++
			}
			row.OracleQueries += res.Stats.Oracle.Queries
			row.OracleIncremental += res.Stats.Oracle.Incremental
			for _, s := range trace.Summarize(rec.Events()) {
				row.PassSeconds[s.Stage+"/"+s.Pass] += s.Wall.Seconds()
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatAblation renders the ablation rows as a table.
func FormatAblation(rows []AblationRow, nInstances int) string {
	var b strings.Builder
	b.WriteString("time and peak nodes are summed over solved instances\n")
	fmt.Fprintf(&b, "%-18s %8s %4s %4s %12s %12s %16s\n",
		"variant", "solved", "TO", "MO", "time [s]", "peak nodes", "oracle q (incr)")
	b.WriteString(strings.Repeat("-", 81) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %5d/%-3d %4d %4d %12.2f %12d %9d (%d)\n",
			r.Name, r.Solved, nInstances, r.Timeouts, r.Memouts, r.TotalSeconds, r.PeakNodesSum,
			r.OracleQueries, r.OracleIncremental)
	}
	return b.String()
}

// FormatPassBreakdown renders each variant's per-pass wall-time breakdown
// (descending by time, up to the top eight passes per variant).
func FormatPassBreakdown(rows []AblationRow) string {
	var b strings.Builder
	b.WriteString("per-pass time breakdown [s]:\n")
	for _, r := range rows {
		if len(r.PassSeconds) == 0 {
			continue
		}
		keys := make([]string, 0, len(r.PassSeconds))
		for k := range r.PassSeconds {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool {
			if r.PassSeconds[keys[i]] != r.PassSeconds[keys[j]] {
				return r.PassSeconds[keys[i]] > r.PassSeconds[keys[j]]
			}
			return keys[i] < keys[j]
		})
		if len(keys) > 8 {
			keys = keys[:8]
		}
		fmt.Fprintf(&b, "  %-18s", r.Name)
		for _, k := range keys {
			fmt.Fprintf(&b, " %s=%.3f", k, r.PassSeconds[k])
		}
		b.WriteString("\n")
	}
	return b.String()
}
