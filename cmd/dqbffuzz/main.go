// Command dqbffuzz cross-checks every solver in this repository on random
// DQBF instances: HQS under several option sets, the iDQ-style
// instantiation solver (including its Skolem certificates), full
// expansion, the incomplete refuter, and — within reach — the brute-force
// Skolem-table enumeration. Any disagreement is printed as a DQDIMACS
// reproduction and the process exits nonzero.
//
// iDQ certificates are always re-checked through the independent checker
// (internal/cert); with -cert every HQS variant additionally extracts a
// Skolem certificate on SAT and has it checked the same way, so a single
// run validates certificates from every certificate-producing engine. A rejected certificate prints its Skolem
// table alongside the DQDIMACS repro.
//
// Usage:
//
//	dqbffuzz [-n 1000] [-seed 1] [-cert] [-maxuniv 4] [-maxexist 4] [-maxclauses 14]
package main

import (
	"flag"
	"fmt"
	"math/rand"
	"os"

	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/expand"
	"repro/internal/idq"
	"repro/internal/problem"
	"repro/internal/refute"
)

func main() {
	var (
		n          = flag.Int("n", 1000, "number of random instances")
		seed       = flag.Int64("seed", 1, "generator seed")
		maxUniv    = flag.Int("maxuniv", 4, "maximum universal variables")
		maxExist   = flag.Int("maxexist", 4, "maximum existential variables")
		maxClauses = flag.Int("maxclauses", 14, "maximum clauses")
		certify    = flag.Bool("cert", false, "extract and check HQS Skolem certificates on every SAT verdict")
		verbose    = flag.Bool("v", false, "print every instance verdict")
	)
	flag.Parse()
	rng := rand.New(rand.NewSource(*seed))

	hqsVariants := map[string]core.Options{
		"hqs":          core.DefaultOptions(),
		"hqs-plain":    {Strategy: core.ElimMaxSAT},
		"hqs-greedy":   greedy(),
		"hqs-elim-all": elimAll(),
	}
	if *certify {
		for name, opt := range hqsVariants {
			opt.Certify = true
			hqsVariants[name] = opt
		}
	}

	bad := 0
	for i := 0; i < *n; i++ {
		f := dqbf.RandomFormula(rng, 1+rng.Intn(*maxUniv), 1+rng.Intn(*maxExist), 1+rng.Intn(*maxClauses))
		verdicts := map[string]bool{}

		for name, opt := range hqsVariants {
			res := core.New(opt).Solve(problem.FromDQBF(f))
			if res.Status != core.Solved {
				fail(f, fmt.Sprintf("%s did not finish: %v", name, res.Status))
				bad++
				continue
			}
			verdicts[name] = res.Sat
			if opt.Certify && res.Sat {
				if res.CertErr != nil {
					fail(f, fmt.Sprintf("%s certificate extraction failed: %v", name, res.CertErr))
					bad++
				} else if err := cert.Check(f, res.Certificate); err != nil {
					failCert(f, fmt.Sprintf("%s certificate rejected: %v", name, err), res.Certificate)
					bad++
				}
			}
		}
		ires := idq.New(idq.Options{}).Solve(f)
		verdicts["idq"] = ires.Sat
		if ires.Sat {
			if err := cert.Check(f, ires.Certificate); err != nil {
				failCert(f, fmt.Sprintf("idq certificate rejected: %v", err), ires.Certificate)
				bad++
			}
		}
		eres, err := expand.New(expand.Options{}).Solve(f)
		if err != nil {
			fail(f, fmt.Sprintf("expand error: %v", err))
			bad++
			continue
		}
		verdicts["expand"] = eres.Sat

		if want, err := dqbf.BruteForce(f); err == nil {
			verdicts["brute"] = want
		}

		// Refuter is incomplete but must never contradict.
		r := refute.Refute(f)
		if r.Verdict == refute.Refuted && verdicts["expand"] {
			fail(f, "refuter refuted a satisfiable instance")
			bad++
		}
		if r.Verdict == refute.Satisfied && !verdicts["expand"] {
			fail(f, "refuter satisfied an unsatisfiable instance")
			bad++
		}

		ref := verdicts["expand"]
		for name, v := range verdicts {
			if v != ref {
				fail(f, fmt.Sprintf("disagreement: %s=%v expand=%v (all: %v)", name, v, ref, verdicts))
				bad++
				break
			}
		}
		if *verbose {
			fmt.Printf("instance %4d: sat=%v univ=%d exist=%d clauses=%d\n",
				i, ref, len(f.Univ), len(f.Exist), len(f.Matrix.Clauses))
		}
	}
	if bad > 0 {
		fmt.Fprintf(os.Stderr, "dqbffuzz: %d failures in %d instances\n", bad, *n)
		os.Exit(1)
	}
	fmt.Printf("dqbffuzz: %d instances, all solvers agree\n", *n)
}

func greedy() core.Options {
	o := core.DefaultOptions()
	o.Strategy = core.ElimGreedy
	return o
}

func elimAll() core.Options {
	o := core.DefaultOptions()
	o.Strategy = core.ElimAll
	return o
}

func fail(f *dqbf.Formula, msg string) {
	fmt.Fprintln(os.Stderr, "FAILURE:", msg)
	fmt.Fprintln(os.Stderr, "instance:")
	if err := f.WriteDQDIMACS(os.Stderr); err != nil {
		fmt.Fprintln(os.Stderr, "  (write error:", err, ")")
	}
}

// failCert is fail plus the rejected certificate's Skolem tables, so a
// mismatch report shows both the instance and the functions that fail it.
func failCert(f *dqbf.Formula, msg string, c *cert.Certificate) {
	fail(f, msg)
	fmt.Fprintln(os.Stderr, "certificate:")
	fmt.Fprint(os.Stderr, cert.Format(f, c))
}
