// Command dqbfbench regenerates the paper's evaluation: Table I (per-family
// solved counts and times for HQS vs iDQ), Figure 4 (the per-instance
// runtime scatter as CSV), the in-text statistics (fraction of instances HQS
// solves in under a second, MaxSAT selection time, unit/pure check share),
// and the design-choice ablations listed in DESIGN.md.
//
// Usage examples:
//
//	dqbfbench                          # Table I over all families
//	dqbfbench -family adder -count 40  # one family, more instances
//	dqbfbench -scatter fig4.csv        # also write the Fig. 4 scatter data
//	dqbfbench -stats                   # print the in-text statistics
//	dqbfbench -ablation                # HQS design-choice ablations
//	dqbfbench -portfolio               # three-arm portfolio race + engine win stats
//	dqbfbench -export dir/             # write instances as .dqdimacs files
//	dqbfbench -gate BENCH_pr1.json     # run + fail on regression vs baseline
//	dqbfbench -compare a.json,b.json   # diff two committed baselines
package main

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/problem"
	"repro/internal/service"
)

func main() {
	var (
		family     = flag.String("family", "", "comma-separated families to run (adder, bitcell, lookahead, pec_xor, z4, comp, C432; extensions: mult, mux, circuit)")
		count      = flag.Int("count", 20, "instances per family")
		width      = flag.Int("width", 4, "maximum circuit width parameter")
		seed       = flag.Int64("seed", 20150309, "generation seed")
		timeout    = flag.Duration("timeout", 3*time.Second, "per-instance per-solver timeout")
		nodeLim    = flag.Int("node-limit", 2_000_000, "HQS AIG node limit (memout analogue)")
		instLim    = flag.Int("inst-limit", 2_000_000, "iDQ instantiation limit (memout analogue)")
		parallel   = flag.Int("parallel", 0, "concurrent instances (0 = NumCPU)")
		scatter    = flag.String("scatter", "", "write Figure 4 scatter CSV to this file")
		baseline   = flag.String("baseline", "", "write a machine-readable campaign baseline (JSON) to this file")
		stats      = flag.Bool("stats", false, "print the paper's in-text statistics")
		ablation   = flag.Bool("ablation", false, "run the HQS design-choice ablations instead of the HQS-vs-iDQ comparison")
		portfolio  = flag.Bool("portfolio", false, "race the three-arm service portfolio over the instances and print per-engine win statistics")
		scaling    = flag.Bool("scaling", false, "run a width-scaling study for the selected family (default adder)")
		extensions = flag.Bool("extensions", false, "include the beyond-paper families (mult, mux, circuit)")
		export     = flag.String("export", "", "write the generated instances as DQDIMACS files into this directory")
		compare    = flag.String("compare", "", "OLD,NEW: compare two committed baseline JSON files and exit")
		gate       = flag.String("gate", "", "run the campaign and gate it against this committed baseline JSON (exit 1 on regression)")
		gateThresh = flag.Float64("gate-threshold", 0.10, "allowed per-family wall-time growth for -gate/-compare (0.10 = +10%)")
	)
	flag.Parse()

	if *compare != "" {
		parts := strings.Split(*compare, ",")
		if len(parts) != 2 {
			fatal(fmt.Errorf("-compare wants OLD,NEW, got %q", *compare))
		}
		old, err := bench.ReadBaseline(strings.TrimSpace(parts[0]))
		if err != nil {
			fatal(err)
		}
		cur, err := bench.ReadBaseline(strings.TrimSpace(parts[1]))
		if err != nil {
			fatal(err)
		}
		cmp := bench.Compare(old, cur)
		fmt.Print(bench.FormatCompare(cmp))
		if fails := cmp.Gate(*gateThresh); len(fails) > 0 {
			fmt.Println("\nregressions:")
			for _, f := range fails {
				fmt.Println("  " + f)
			}
			os.Exit(1)
		}
		fmt.Println("\ngate: PASS")
		return
	}

	gen := bench.GenOptions{Count: *count, Seed: *seed, MaxWidth: *width}
	families := bench.Families
	if *extensions {
		families = append(append([]bench.Family{}, families...), bench.ExtensionFamilies...)
	}
	if *family != "" {
		families = nil
		for _, name := range strings.Split(*family, ",") {
			if name = strings.TrimSpace(name); name != "" {
				families = append(families, bench.Family(name))
			}
		}
	}

	if *scaling {
		fam := bench.FamilyAdder
		if len(families) == 1 {
			fam = families[0]
		}
		var widths []int
		for w := 2; w <= *width+2; w++ {
			widths = append(widths, w)
		}
		sopt := bench.RunOptions{Timeout: *timeout, HQSNodeLimit: *nodeLim, IDQMaxInstantiations: *instLim}
		sopt.HQSOptions = bench.DefaultRunOptions().HQSOptions
		pts, err := bench.ScalingStudy(fam, widths, 4, sopt)
		if err != nil {
			fatal(err)
		}
		fmt.Print(bench.FormatScaling(fam, pts, *timeout))
		return
	}
	var instances []bench.Instance
	for _, f := range families {
		insts, err := bench.Generate(f, gen)
		if err != nil {
			fatal(err)
		}
		instances = append(instances, insts...)
	}
	fmt.Printf("generated %d instances across %d families\n", len(instances), len(families))

	if *export != "" {
		if err := os.MkdirAll(*export, 0o755); err != nil {
			fatal(err)
		}
		for _, inst := range instances {
			path := filepath.Join(*export, inst.Name+".dqdimacs")
			f, err := os.Create(path)
			if err != nil {
				fatal(err)
			}
			if err := inst.Formula.WriteDQDIMACS(f); err != nil {
				fatal(err)
			}
			f.Close()
		}
		fmt.Printf("exported instances to %s\n", *export)
	}

	if *ablation {
		fmt.Printf("\nHQS design-choice ablation (timeout %v):\n\n", *timeout)
		rows := bench.RunAblation(instances, bench.AblationVariants(), *timeout, *nodeLim)
		fmt.Print(bench.FormatAblation(rows, len(instances)))
		fmt.Println()
		fmt.Print(bench.FormatPassBreakdown(rows))
		return
	}

	if *portfolio {
		fmt.Printf("\nPortfolio race (timeout %v per instance):\n\n", *timeout)
		runner := &service.Runner{}
		solved, unknown := 0, 0
		start := time.Now()
		for _, inst := range instances {
			out := runner.Run(nil, service.Request{
				Problem: problem.FromDQBF(inst.Formula),
				Engine:  service.EnginePortfolio,
				Limits:  service.Limits{Timeout: *timeout, Nodes: *nodeLim},
			})
			if out.Verdict == service.VerdictSat || out.Verdict == service.VerdictUnsat {
				solved++
			} else {
				unknown++
			}
		}
		fmt.Printf("solved %d/%d (%d unknown) in %v\n\n", solved, len(instances), unknown, time.Since(start).Round(time.Millisecond))
		fmt.Println("per-engine attempts and wins (wins credit the arm that answered):")
		fmt.Print(service.FormatEngineStats(runner.Stats().Engines))
		return
	}

	opt := bench.RunOptions{
		Timeout:              *timeout,
		HQSNodeLimit:         *nodeLim,
		IDQMaxInstantiations: *instLim,
		Parallelism:          *parallel,
	}
	opt.HQSOptions = bench.DefaultRunOptions().HQSOptions
	campaign := bench.Run(instances, opt)

	if d := campaign.Disagreements(); len(d) > 0 {
		fmt.Fprintf(os.Stderr, "WARNING: solver disagreements: %v\n", d)
	}

	fmt.Printf("\nTable I (timeout %v per instance and solver):\n\n", *timeout)
	fmt.Print(bench.FormatTableI(bench.TableI(campaign)))

	if *scatter != "" {
		csv := bench.FormatFigure4CSV(bench.Figure4(campaign))
		if err := os.WriteFile(*scatter, []byte(csv), 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("\nFigure 4 scatter data written to %s\n", *scatter)
	}

	if *baseline != "" {
		if err := bench.WriteBaseline(*baseline, bench.ComputeBaseline(campaign, opt)); err != nil {
			fatal(err)
		}
		fmt.Printf("\nBaseline written to %s\n", *baseline)
	}

	if *gate != "" {
		old, err := bench.ReadBaseline(*gate)
		if err != nil {
			fatal(err)
		}
		cmp := bench.Compare(old, bench.ComputeBaseline(campaign, opt))
		fmt.Printf("\nRegression gate vs %s (threshold +%.0f%%):\n\n", *gate, *gateThresh*100)
		fmt.Print(bench.FormatCompare(cmp))
		if fails := cmp.Gate(*gateThresh); len(fails) > 0 {
			fmt.Println("\nregressions:")
			for _, f := range fails {
				fmt.Println("  " + f)
			}
			os.Exit(1)
		}
		fmt.Println("\ngate: PASS")
	}

	if *stats {
		st := bench.ComputeStats(campaign)
		fmt.Printf("\nIn-text statistics:\n")
		fmt.Printf("  HQS-solved instances finished < 1 s : %5.1f%%  (paper: ~90%%)\n", 100*st.HQSSolvedUnder1s)
		fmt.Printf("  max MaxSAT selection time           : %.4f s (paper: < 0.06 s)\n", st.MaxElimSetSeconds)
		fmt.Printf("  max unit/pure share of runtime      : %5.1f%%  (%5.1f%% on ≥10ms instances; paper: < 4%%)\n",
			100*st.MaxUnitPureShare, 100*st.MaxUnitPureShareSlow)
		fmt.Printf("  geo-mean speedup HQS vs iDQ (both)  : %.1fx\n", st.SpeedupGeoMean)
		fmt.Printf("  max speedup (TO/MO at budget)       : %.0fx   (paper: up to 10^4)\n", st.MaxSpeedup)
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "dqbfbench:", err)
	os.Exit(1)
}
