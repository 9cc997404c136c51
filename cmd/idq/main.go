// Command idq is the instantiation-based DQBF baseline solver: it reads a
// DQDIMACS (or QDIMACS) formula and decides it by counterexample-guided
// expansion, printing SAT, UNSAT, or UNKNOWN with the conventional solver
// exit codes (10 for SAT, 20 for UNSAT, 1 for errors, 2 for
// unknown/resource-outs). The -engine flag can redirect the solve to the
// HQS core or a portfolio racing both engines; -timeout is enforced through
// a cancellable budget that interrupts running SAT oracles.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"runtime"
	"time"

	"repro/internal/budget"
	"repro/internal/dqbf"
	"repro/internal/idq"
	"repro/internal/problem"
	"repro/internal/service"
)

func main() {
	var (
		timeout = flag.Duration("timeout", 0, "wall-clock limit (0 = none)")
		engine  = flag.String("engine", "idq", "solver engine: idq | hqs | portfolio")
		maxInst = flag.Int("max-instantiations", 0, "instantiated clause limit (0 = none)")
		workers = flag.Int("workers", 0, "cap on OS threads running Go code (0 = leave GOMAXPROCS alone)")
		stats   = flag.Bool("stats", false, "print solver statistics to stderr")
	)
	flag.Parse()

	// The CEGAR expansion loop itself is serial; -workers exists for flag
	// parity with hqs and bounds the runtime's parallelism (GC, timers) so
	// both solvers can be benchmarked under identical CPU budgets.
	if *workers > 0 {
		runtime.GOMAXPROCS(*workers)
	}

	var in io.Reader = os.Stdin
	if flag.NArg() > 0 {
		f, err := os.Open(flag.Arg(0))
		if err != nil {
			fmt.Fprintln(os.Stderr, "idq:", err)
			os.Exit(1)
		}
		defer f.Close()
		in = f
	}
	formula, err := dqbf.ParseDQDIMACS(in)
	if err != nil {
		fmt.Fprintln(os.Stderr, "idq:", err)
		os.Exit(1)
	}
	if err := formula.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "idq:", err)
		os.Exit(1)
	}

	bud := budget.New(budget.Limits{Timeout: *timeout})

	if *engine != "idq" {
		eng, err := service.ParseEngine(*engine)
		if err != nil {
			fmt.Fprintln(os.Stderr, "idq:", err)
			os.Exit(1)
		}
		start := time.Now()
		out := (&service.Runner{}).Run(bud, service.Request{Problem: problem.FromDQBF(formula), Engine: eng})
		if *stats {
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

	start := time.Now()
	res := idq.New(idq.Options{Budget: bud, MaxInstantiations: *maxInst}).Solve(formula)
	elapsed := time.Since(start)

	if *stats {
		st := res.Stats
		fmt.Fprintf(os.Stderr, "c time           %v\n", elapsed)
		fmt.Fprintf(os.Stderr, "c iterations     %d\n", st.Iterations)
		fmt.Fprintf(os.Stderr, "c instantiations %d\n", st.Instantiations)
		fmt.Fprintf(os.Stderr, "c sat calls      %d abstraction, %d verification\n", st.AbstractionSAT, st.VerifySAT)
		fmt.Fprintf(os.Stderr, "c table entries  %d\n", st.TableEntries)
	}
	switch res.Status {
	case idq.Solved:
		if res.Sat {
			fmt.Println("SAT")
			os.Exit(10)
		}
		fmt.Println("UNSAT")
		os.Exit(20)
	case idq.Timeout:
		fmt.Println("TIMEOUT")
	case idq.Memout:
		fmt.Println("MEMOUT")
	default:
		fmt.Println("UNKNOWN")
	}
	os.Exit(2)
}
