package bench

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/budget"
	"repro/internal/defex"
)

// DefexVariant is one definition-extraction configuration under study.
type DefexVariant struct {
	Name string
	Opt  defex.Options
}

// DefexAblationVariants returns the definition-extraction ablations: the
// default engine, a single definability round vs the fixpoint, and the
// certified configuration (which pays for recording the definition trail and
// the residual Skolem tables).
func DefexAblationVariants() []DefexVariant {
	return []DefexVariant{
		{Name: "defex(interp)", Opt: defex.Options{}},
		{Name: "rounds=1", Opt: defex.Options{MaxRounds: 1}},
		{Name: "certify=on", Opt: defex.Options{Certify: true}},
	}
}

// DefexRow aggregates one defex variant over an instance set.
type DefexRow struct {
	Name         string
	Solved       int
	Timeouts     int
	Memouts      int
	TotalSeconds float64 // over solved instances
	// Checks / Defined sum the definability work: Padoa queries issued and
	// existentials eliminated by substitution (constants included).
	Checks  int
	Defined int
	// InterpFallbacks counts interpolants that failed verification, leaving
	// their variable to the residual expansion.
	InterpFallbacks int
	// ExpandUsed counts instances whose residual needed universal expansion —
	// how often definability alone did not finish the job.
	ExpandUsed int
}

// RunDefexAblation runs every defex variant over the instances sequentially
// (one variant at a time, so timings are comparable), each solve under a
// fresh budget of the given timeout and node cap.
func RunDefexAblation(instances []Instance, variants []DefexVariant, timeout time.Duration, nodeLimit int) []DefexRow {
	var rows []DefexRow
	for _, v := range variants {
		row := DefexRow{Name: v.Name}
		opt := v.Opt
		for _, inst := range instances {
			opt.Budget = budget.New(budget.Limits{Timeout: timeout, Nodes: nodeLimit})
			start := time.Now()
			res := defex.New(opt).Solve(inst.Formula)
			sec := time.Since(start).Seconds()
			switch res.Status {
			case defex.Solved:
				row.Solved++
				row.TotalSeconds += sec
			case defex.Timeout:
				row.Timeouts++
			case defex.Memout:
				row.Memouts++
			}
			row.Checks += res.Stats.Checks
			row.Defined += res.Stats.Defined + res.Stats.DefinedConst
			row.InterpFallbacks += res.Stats.InterpFallbacks
			if res.Stats.ExpandUsed {
				row.ExpandUsed++
			}
		}
		rows = append(rows, row)
	}
	return rows
}

// FormatDefexAblation renders the defex ablation rows as a table.
func FormatDefexAblation(rows []DefexRow, nInstances int) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%-18s %8s %4s %4s %12s %8s %8s %6s %8s\n",
		"variant", "solved", "TO", "MO", "time [s]", "checks", "defined", "fallb", "expanded")
	b.WriteString(strings.Repeat("-", 84) + "\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "%-18s %5d/%-3d %4d %4d %12.2f %8d %8d %6d %8d\n",
			r.Name, r.Solved, nInstances, r.Timeouts, r.Memouts, r.TotalSeconds,
			r.Checks, r.Defined, r.InterpFallbacks, r.ExpandUsed)
	}
	return b.String()
}
