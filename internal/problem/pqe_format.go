package problem

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"strconv"
	"strings"

	"repro/internal/cnf"
)

// parsePQE reads the PQE query dialect, a DIMACS-shaped serialization of
// ∃X[F ∧ G]:
//
//	p pqe <vars> <nf> <ng>
//	e x1 x2 ... 0        quantified (X) variables; repeatable
//	<nf clauses of F, then ng clauses of G>
//
// The reader mirrors the strict DQDIMACS reader: one problem line first,
// 0-terminated "e" lines before the clauses, literals within the declared
// range, and exactly nf+ng clauses.
func parsePQE(data []byte) (*Problem, error) {
	q := &PQESplit{}
	nf, ng := -1, -1
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, min(len(data)+1, 1<<16)), 1<<24)
	var clauses []cnf.Clause
	var cur cnf.Clause
	lineNo := 0
	prefixDone := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		fields := strings.Fields(line)
		if nf < 0 && fields[0] != "p" {
			return nil, fmt.Errorf("pqe line %d: %q before problem line", lineNo, fields[0])
		}
		switch fields[0] {
		case "p":
			if nf >= 0 {
				return nil, fmt.Errorf("pqe line %d: duplicate problem line", lineNo)
			}
			if len(fields) != 5 || fields[1] != "pqe" {
				return nil, fmt.Errorf("pqe line %d: malformed problem line (want \"p pqe <vars> <nf> <ng>\")", lineNo)
			}
			nums := make([]int, 3)
			for i, tok := range fields[2:] {
				n, err := strconv.Atoi(tok)
				if err != nil || n < 0 || n > cnf.MaxVar {
					return nil, fmt.Errorf("pqe line %d: bad count %q", lineNo, tok)
				}
				nums[i] = n
			}
			q.NumVars, nf, ng = nums[0], nums[1], nums[2]
		case "e":
			if prefixDone {
				return nil, fmt.Errorf("pqe line %d: quantifier line after clauses", lineNo)
			}
			vars, err := parsePQEVarLine(fields[1:], lineNo, q.NumVars)
			if err != nil {
				return nil, err
			}
			q.X = append(q.X, vars...)
		default:
			prefixDone = true
			for _, tok := range fields {
				d, err := strconv.Atoi(tok)
				if err != nil {
					return nil, fmt.Errorf("pqe line %d: bad literal %q", lineNo, tok)
				}
				if d == 0 {
					clauses = append(clauses, cur)
					cur = nil
					continue
				}
				// Range-check before the conversion: a literal beyond the
				// variable type's range would wrap into it.
				if d > q.NumVars || d < -q.NumVars {
					return nil, fmt.Errorf("pqe line %d: literal %d out of range (declared %d variables)",
						lineNo, d, q.NumVars)
				}
				cur = append(cur, cnf.LitFromDimacs(d))
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cur) > 0 {
		clauses = append(clauses, cur)
	}
	if nf < 0 {
		return nil, fmt.Errorf("pqe: missing problem line")
	}
	if len(clauses) != nf+ng {
		return nil, fmt.Errorf("pqe: %d clauses, problem line declares %d F + %d G", len(clauses), nf, ng)
	}
	q.F = clauses[:nf:nf]
	q.G = clauses[nf:]
	if err := q.Validate(); err != nil {
		return nil, err
	}
	return &Problem{Kind: KindPQE, Format: FormatPQE, PQE: q}, nil
}

func parsePQEVarLine(toks []string, lineNo, numVars int) ([]cnf.Var, error) {
	var out []cnf.Var
	for i, tok := range toks {
		d, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("pqe line %d: bad variable %q", lineNo, tok)
		}
		if d == 0 {
			if i != len(toks)-1 {
				return nil, fmt.Errorf("pqe line %d: trailing tokens after terminating 0", lineNo)
			}
			return out, nil
		}
		if d < 0 {
			return nil, fmt.Errorf("pqe line %d: negative variable %d in prefix", lineNo, d)
		}
		if d > numVars {
			return nil, fmt.Errorf("pqe line %d: variable %d out of range (declared %d variables)", lineNo, d, numVars)
		}
		out = append(out, cnf.Var(d))
	}
	return nil, fmt.Errorf("pqe line %d: quantifier line not terminated by 0", lineNo)
}

// WritePQE serializes the split in the dialect parsePQE reads; the output
// round-trips exactly.
func (q *PQESplit) WritePQE(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p pqe %d %d %d\n", q.NumVars, len(q.F), len(q.G))
	if len(q.X) > 0 {
		fmt.Fprint(bw, "e")
		for _, x := range q.X {
			fmt.Fprintf(bw, " %d", x)
		}
		fmt.Fprintln(bw, " 0")
	}
	for _, cs := range [][]cnf.Clause{q.F, q.G} {
		for _, c := range cs {
			for _, l := range c {
				fmt.Fprintf(bw, "%d ", l.Dimacs())
			}
			fmt.Fprintln(bw, "0")
		}
	}
	return bw.Flush()
}
