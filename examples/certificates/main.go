// Certificates example: solving a satisfiable DQBF with the
// instantiation-based solver yields Skolem functions — an independently
// checkable witness (the certification perspective the paper cites from
// Balabanov et al.). The example extracts the certificate for the paper's
// Example 1, prints its truth tables, checks it with one SAT call, and shows
// that a tampered certificate is rejected.
package main

import (
	"fmt"
	"log"

	"repro/internal/cert"
	"repro/internal/dqbf"
	"repro/internal/idq"
)

func example1() *dqbf.Formula {
	f := dqbf.New()
	f.AddUniversal(1) // x1
	f.AddUniversal(2) // x2
	f.AddExistential(3, 1)
	f.AddExistential(4, 2)
	f.Matrix.AddDimacsClause(-3, 1)
	f.Matrix.AddDimacsClause(3, -1)
	f.Matrix.AddDimacsClause(-4, 2)
	f.Matrix.AddDimacsClause(4, -2)
	return f
}

func main() {
	f := example1()
	res := idq.New(idq.Options{}).Solve(f)
	if !res.Sat || res.Certificate == nil {
		log.Fatal("expected SAT with certificate")
	}
	fmt.Println("formula:", f)
	fmt.Printf("iDQ: SAT after %d refinement iterations\n\n", res.Stats.Iterations)

	fmt.Println("Skolem functions (projection of the universal assignment onto")
	fmt.Println("the dependency set -> value):")
	fmt.Print(cert.Format(f, res.Certificate))

	if err := cert.Check(f, res.Certificate); err != nil {
		log.Fatal("valid certificate rejected: ", err)
	}
	fmt.Println("\nindependent SAT-based check: certificate VALID")

	// Tamper with one function; the checker pinpoints a falsifying
	// assignment.
	y := f.Exist[0]
	res.Certificate.Funcs[y] = res.Certificate.Funcs[y].Not()
	fmt.Printf("\nnegating the function of y%d ...\n", y)
	if err := cert.Check(f, res.Certificate); err != nil {
		fmt.Println("checker correctly rejects:", err)
	} else {
		log.Fatal("tampered certificate accepted")
	}
}
