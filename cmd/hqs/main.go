// Command hqs is the HQS DQBF solver: it reads a problem in any supported
// input format — DQDIMACS, QDIMACS, AIGER (ascii or binary), or an ISCAS-85
// BENCH netlist — and decides it by quantifier elimination, printing SAT,
// UNSAT, or UNKNOWN and exiting with the conventional solver exit codes
// (10 for SAT, 20 for UNSAT, 1 for errors, 2 for unknown/resource-outs).
// The format is detected from the file extension or, for stdin and unknown
// extensions, from the content itself. A PQE query ("p pqe" header) is
// answered directly: the computed clause set Q with Q ∧ ∃X[G] ≡ ∃X[F ∧ G]
// is printed as DIMACS clauses and the exit code is 0.
//
// Usage:
//
//	hqs [flags] [file.{dqdimacs,qdimacs,aag,aig,bench,pqe}]
//
// With no file argument the problem is read from standard input. The
// -engine flag can redirect the solve to the iDQ baseline, plain universal
// expansion, or a portfolio racing all three; -timeout is enforced through
// a cancellable budget, so it interrupts a running SAT oracle rather than
// waiting for the next loop iteration. -trace prints one table row per executed pipeline pass to
// stderr, and -trace-json streams the same events as JSON lines. -cert makes
// a SAT verdict carry a Skolem certificate: the solver extracts per-variable
// Skolem functions, the independent checker (internal/cert) validates them
// against the input formula, and the certificate is printed as Skolem tables
// on stdout; a rejected certificate is an error exit, never a bare SAT.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/budget"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/problem"
	"repro/internal/service"
	"repro/internal/trace"
)

func main() {
	var (
		timeout    = flag.Duration("timeout", 0, "wall-clock limit (0 = none)")
		engine     = flag.String("engine", "hqs", "solver engine: hqs | idq | expand | portfolio")
		nodeLimit  = flag.Int("node-limit", 0, "AIG node limit (0 = none)")
		strategy   = flag.String("strategy", "maxsat", "universal elimination set: maxsat | greedy | all")
		noPre      = flag.Bool("no-preprocess", false, "disable CNF preprocessing")
		noGates    = flag.Bool("no-gates", false, "disable Tseitin gate detection")
		noUnitPure = flag.Bool("no-unitpure", false, "disable unit/pure elimination on AIGs")
		noSweep    = flag.Bool("no-sweep", false, "disable SAT sweeping")
		stats      = flag.Bool("stats", false, "print solver statistics to stderr")
		certFlag   = flag.Bool("cert", false, "extract, check, and print a Skolem certificate on SAT")
		traceFlag  = flag.Bool("trace", false, "print a per-pass pipeline trace table to stderr")
		traceJSON  = flag.String("trace-json", "", `stream per-pass trace events as JSON lines to a file ("-" = stdout)`)
	)
	flag.Parse()

	var in io.Reader = os.Stdin
	hint := problem.Format("")
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "hqs:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
		hint = problem.FormatFromPath(flag.Arg(0))
	}
	data, err := io.ReadAll(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqs:", err)
		os.Exit(1)
	}
	prob, err := problem.ParseBytes(data, hint)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqs:", err)
		os.Exit(1)
	}
	if err := prob.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "hqs:", err)
		os.Exit(1)
	}

	bud := budget.New(budget.Limits{Timeout: *timeout, Nodes: *nodeLimit})

	if prob.Kind == problem.KindPQE {
		runPQE(prob, bud)
	}
	formula := prob.Formula

	// Assemble the trace sink: a bounded recorder backing the human table
	// (-trace) and/or a JSONL stream (-trace-json). Both see the same events.
	var rec *trace.Recorder
	var sinks []trace.Sink
	if *traceFlag {
		rec = trace.NewRecorder(0)
		sinks = append(sinks, rec)
	}
	if *traceJSON != "" {
		w := os.Stdout
		if *traceJSON != "-" {
			tf, err := os.Create(*traceJSON)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hqs:", err)
				os.Exit(1)
			}
			defer tf.Close()
			w = tf
		}
		sinks = append(sinks, trace.NewWriter(w))
	}
	sink := trace.Multi(sinks...)

	if *engine != "hqs" {
		eng, err := service.ParseEngine(*engine)
		if err != nil {
			fmt.Fprintln(os.Stderr, "hqs:", err)
			os.Exit(1)
		}
		// The service path re-checks HQS SAT answers itself (and always checks
		// iDQ certificates); -cert opts the HQS arms in.
		runner := &service.Runner{Certify: *certFlag}
		runService(runner, service.Request{Problem: prob, Engine: eng, Trace: sink}, bud, *stats, rec)
	}

	opt := core.DefaultOptions()
	opt.Budget = bud
	opt.Trace = sink
	opt.Certify = *certFlag
	opt.Preprocess = !*noPre
	opt.DetectGates = !*noGates && !*noPre
	opt.UnitPure = !*noUnitPure
	if *noSweep {
		opt.SweepThreshold = 0
		opt.QBF.SweepThreshold = 0
	}
	switch *strategy {
	case "maxsat":
		opt.Strategy = core.ElimMaxSAT
	case "greedy":
		opt.Strategy = core.ElimGreedy
	case "all":
		opt.Strategy = core.ElimAll
	default:
		fmt.Fprintf(os.Stderr, "hqs: unknown strategy %q\n", *strategy)
		os.Exit(1)
	}

	start := time.Now()
	res := core.New(opt).Solve(prob)
	elapsed := time.Since(start)

	if rec != nil {
		fmt.Fprint(os.Stderr, trace.FormatTable(rec.Events()))
	}
	if *stats {
		st := res.Stats
		thm1, thm2, up := st.Pass("hqs", "thm1"), st.Pass("hqs", "thm2"), st.Pass("hqs", "unitpure")
		fmt.Fprintf(os.Stderr, "c time            %v\n", elapsed)
		fmt.Fprintf(os.Stderr, "c decided by      %s\n", st.DecidedBy)
		fmt.Fprintf(os.Stderr, "c elim set        %v (maxsat %v)\n", st.ElimSet, st.Pass("hqs", "elimset").Wall)
		fmt.Fprintf(os.Stderr, "c thm1/thm2 elims %d/%d (%d copies)\n", thm1.Counters["univ"], thm2.Counters["exist"], thm1.Counters["copies"])
		fmt.Fprintf(os.Stderr, "c unit/pure       %d/%d in %v\n", up.Counters["units"], up.Counters["pures"], up.Wall)
		fmt.Fprintf(os.Stderr, "c sweeps          %d, peak AIG nodes %d\n", st.Sweeps+st.QBF.Sweeps, st.PeakAIGNodes)
		sw := st.Sweep
		sw.Add(st.QBF.Sweep)
		fmt.Fprintf(os.Stderr, "c sweep merges    %d of %d candidates: %d hashed, %d truth-table, %d SAT (%d SAT calls, %d sim-refuted)\n",
			sw.Merged, sw.Candidates, sw.Strash, sw.Exact, sw.Merged-sw.Strash-sw.Exact, sw.SatCalls, sw.SimRefuted)
		fmt.Fprintf(os.Stderr, "c sweep arena     %d bytes peak, %d compactions\n",
			sw.ArenaBytes, sw.Compactions)
		or := st.Oracle
		fmt.Fprintf(os.Stderr, "c oracle          %d queries (%d incremental, %d rebuilds), %d scopes\n",
			or.Queries, or.Incremental, or.Rebuilds, or.Scopes)
		fmt.Fprintf(os.Stderr, "c oracle reuse    %d learnts retained, %d encoded nodes, %d arena bytes peak\n",
			or.LearntsRetained, or.EncodedNodes, or.ArenaBytesHW)
		fmt.Fprintf(os.Stderr, "c gates detected  %d\n", st.Pass("hqs", "preprocess").Counters["gates"])
	}
	switch res.Status {
	case core.Solved:
		if res.Sat {
			if *certFlag {
				if res.CertErr != nil {
					fmt.Fprintln(os.Stderr, "hqs: certificate extraction failed:", res.CertErr)
					os.Exit(1)
				}
				if err := cert.Check(formula, res.Certificate); err != nil {
					fmt.Fprintln(os.Stderr, "hqs: certificate rejected:", err)
					fmt.Fprint(os.Stderr, cert.Format(formula, res.Certificate))
					os.Exit(1)
				}
			}
			fmt.Println("SAT")
			if *certFlag {
				fmt.Print(cert.Format(formula, res.Certificate))
			}
			os.Exit(10)
		}
		fmt.Println("UNSAT")
		os.Exit(20)
	case core.Timeout:
		fmt.Println("TIMEOUT")
	case core.Memout:
		fmt.Println("MEMOUT")
	default:
		fmt.Println("UNKNOWN")
	}
	os.Exit(2)
}

// runPQE answers a PQE query and exits: the computed clause set is printed
// in DIMACS form ("c Q" header, one 0-terminated line per clause), a budget
// stop prints UNKNOWN with exit code 2, and failures exit 1.
func runPQE(p *problem.Problem, bud *budget.Budget) {
	out := (&service.Runner{}).SolvePQE(bud, service.Request{Problem: p})
	if out.Err != nil {
		if out.Stopped {
			fmt.Println("UNKNOWN")
			os.Exit(2)
		}
		fmt.Fprintln(os.Stderr, "hqs:", out.Err)
		os.Exit(1)
	}
	res := out.Result
	fmt.Printf("c pqe rounds=%d sat_calls=%d blocked=%d\n", res.Rounds, res.SATCalls, res.Blocked)
	fmt.Printf("p cnf %d %d\n", p.PQE.NumVars, len(res.Q))
	for _, c := range res.Q {
		for _, l := range c {
			fmt.Printf("%d ", l.Dimacs())
		}
		fmt.Println("0")
	}
	os.Exit(0)
}

// runService decides req through internal/service (engines other than the
// native hqs core) and exits with the solver exit codes. The HQS arm of the
// selected engine emits pass events to req.Trace; rec backs the -trace
// table.
func runService(runner *service.Runner, req service.Request, bud *budget.Budget, stats bool, rec *trace.Recorder) {
	start := time.Now()
	out := runner.Run(bud, req)
	if rec != nil {
		fmt.Fprint(os.Stderr, trace.FormatTable(rec.Events()))
	}
	if stats {
		fmt.Fprintf(os.Stderr, "c time      %v\n", time.Since(start))
		fmt.Fprintf(os.Stderr, "c engine    %s\n", out.Engine)
		fmt.Fprintf(os.Stderr, "c reason    %s\n", out.Reason)
		fmt.Fprintf(os.Stderr, "c conflicts %d, decisions %d\n", out.Conflicts, out.Decisions)
	}
	fmt.Println(out.Verdict)
	switch out.Verdict {
	case service.VerdictSat:
		os.Exit(10)
	case service.VerdictUnsat:
		os.Exit(20)
	default:
		os.Exit(2)
	}
}
