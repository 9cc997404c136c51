// Command pec2dqbf encodes a partial equivalence checking problem as a DQBF
// in DQDIMACS format (the encoding of Gitina et al., ICCD 2013).
//
// The specification and the incomplete implementation are given as BENCH
// netlists; signals referenced but never driven in the implementation are
// its black-box outputs. Each -box flag declares one black box as
// NAME:out1,out2,...:in1,in2,... (signal names in the implementation). When
// no -box flag is given, every free signal becomes its own black box whose
// inputs are the primary inputs (a coarse but safe default).
//
// Usage:
//
//	pec2dqbf -spec spec.bench -impl impl.bench [-box b:outs:ins]... [-o out.dqdimacs]
package main

import (
	"flag"
	"fmt"
	"os"
	"strings"

	"repro/internal/circuit"
	"repro/internal/pec"
)

type boxFlags []string

func (b *boxFlags) String() string { return strings.Join(*b, " ") }
func (b *boxFlags) Set(s string) error {
	*b = append(*b, s)
	return nil
}

func main() {
	var (
		specPath = flag.String("spec", "", "specification BENCH netlist (required)")
		implPath = flag.String("impl", "", "implementation BENCH netlist with free signals (required)")
		outPath  = flag.String("o", "", "output DQDIMACS file (default: stdout)")
		boxes    boxFlags
	)
	flag.Var(&boxes, "box", "black box as NAME:out1,out2:in1,in2 (repeatable)")
	flag.Parse()
	if *specPath == "" || *implPath == "" {
		flag.Usage()
		os.Exit(1)
	}

	spec, err := loadBench(*specPath)
	if err != nil {
		fatal(err)
	}
	impl, err := loadBench(*implPath)
	if err != nil {
		fatal(err)
	}

	problem := &pec.Problem{Spec: spec, Impl: impl}
	if len(boxes) == 0 {
		for _, id := range impl.FreeSignals() {
			problem.Boxes = append(problem.Boxes, pec.BlackBox{
				Name:    impl.Name(id),
				Inputs:  append([]int(nil), impl.Inputs...),
				Outputs: []int{id},
			})
		}
	} else {
		for _, spec := range boxes {
			b, err := parseBox(impl, spec)
			if err != nil {
				fatal(err)
			}
			problem.Boxes = append(problem.Boxes, b)
		}
	}

	formula, err := problem.ToDQBF()
	if err != nil {
		fatal(err)
	}
	out := os.Stdout
	if *outPath != "" {
		f, err := os.Create(*outPath)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		out = f
	}
	fmt.Fprintf(out, "c PEC instance: spec=%s impl=%s boxes=%d\n", *specPath, *implPath, len(problem.Boxes))
	if err := formula.WriteDQDIMACS(out); err != nil {
		fatal(err)
	}
}

func loadBench(path string) (*circuit.Circuit, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return circuit.ParseBench(data)
}

func parseBox(impl *circuit.Circuit, s string) (pec.BlackBox, error) {
	parts := strings.Split(s, ":")
	if len(parts) != 3 {
		return pec.BlackBox{}, fmt.Errorf("pec2dqbf: -box wants NAME:outs:ins, got %q", s)
	}
	b := pec.BlackBox{Name: parts[0]}
	for _, n := range strings.Split(parts[1], ",") {
		id := impl.Signal(strings.TrimSpace(n))
		if id < 0 {
			return b, fmt.Errorf("pec2dqbf: unknown output signal %q", n)
		}
		b.Outputs = append(b.Outputs, id)
	}
	for _, n := range strings.Split(parts[2], ",") {
		id := impl.Signal(strings.TrimSpace(n))
		if id < 0 {
			return b, fmt.Errorf("pec2dqbf: unknown input signal %q", n)
		}
		b.Inputs = append(b.Inputs, id)
	}
	return b, nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "pec2dqbf:", err)
	os.Exit(1)
}
