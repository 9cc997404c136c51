package dqbf

import (
	"bufio"
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cnf"
)

// scannerParseDQDIMACS is a line-by-line DQDIMACS reader built from the
// standard library's own rules — a bufio.Scanner over the input,
// strings.TrimSpace and strings.Fields on each line, strconv.Atoi on each
// token — kept as the reference FuzzDQDIMACSReader holds
// ParseDQDIMACS to. Both readers must produce the same formula or the
// same error text on every input.
func scannerParseDQDIMACS(r io.Reader) (*Formula, error) {
	f := New()
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<16), 1<<24)
	var cur cnf.Clause
	var universalsSoFar []cnf.Var
	type existential struct {
		v    cnf.Var
		deps []cnf.Var
	}
	var exists []existential
	prefix := make(map[cnf.Var]bool) // quantified variable -> universal
	lits := 0
	problemLine := 0
	lineNo := 0
	prefixDone := false
	sawProblem := false
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "c") {
			continue
		}
		fields := strings.Fields(line)
		if !sawProblem && fields[0] != "p" {
			return nil, fmt.Errorf("dqdimacs line %d: %q before problem line", lineNo, fields[0])
		}
		switch fields[0] {
		case "p":
			if sawProblem {
				return nil, fmt.Errorf("dqdimacs line %d: duplicate problem line", lineNo)
			}
			if len(fields) != 4 || fields[1] != "cnf" {
				return nil, fmt.Errorf("dqdimacs line %d: malformed problem line (want \"p cnf <vars> <clauses>\")", lineNo)
			}
			n, err := strconv.Atoi(fields[2])
			if err != nil || n < 0 || n > cnf.MaxVar {
				return nil, fmt.Errorf("dqdimacs line %d: bad variable count %q", lineNo, fields[2])
			}
			if k, err := strconv.Atoi(fields[3]); err != nil || k < 0 {
				return nil, fmt.Errorf("dqdimacs line %d: bad clause count %q", lineNo, fields[3])
			}
			f.Matrix.NumVars = n
			sawProblem = true
			problemLine = lineNo
		case "a", "e", "d":
			if prefixDone {
				return nil, fmt.Errorf("dqdimacs line %d: quantifier line after clauses", lineNo)
			}
			vars, err := scannerParseVarLine(fields[1:], lineNo, f.Matrix.NumVars)
			if err != nil {
				return nil, err
			}
			var deps []cnf.Var
			if fields[0] == "d" {
				if len(vars) == 0 {
					return nil, fmt.Errorf("dqdimacs line %d: empty d line", lineNo)
				}
				// A dependency on a variable quantified only later is left
				// to the Validate call at the end.
				vars, deps = vars[:1], vars[1:]
				for _, d := range deps {
					if d == vars[0] {
						return nil, fmt.Errorf("dqdimacs line %d: existential %d depends on itself", lineNo, d)
					}
					if univ, ok := prefix[d]; ok && !univ {
						return nil, fmt.Errorf("dqdimacs line %d: existential %d depends on existential %d", lineNo, vars[0], d)
					}
				}
			}
			for _, v := range vars {
				if _, ok := prefix[v]; ok {
					return nil, fmt.Errorf("dqdimacs line %d: variable %d quantified twice", lineNo, v)
				}
				prefix[v] = fields[0] == "a"
			}
			switch fields[0] {
			case "a":
				for _, v := range vars {
					f.AddUniversal(v)
					universalsSoFar = append(universalsSoFar, v)
				}
			case "e":
				for _, v := range vars {
					exists = append(exists, existential{v, universalsSoFar})
				}
			case "d":
				exists = append(exists, existential{vars[0], deps})
			}
		default:
			prefixDone = true
			for _, tok := range fields {
				d, err := strconv.Atoi(tok)
				if err != nil {
					return nil, fmt.Errorf("dqdimacs line %d: bad literal %q", lineNo, tok)
				}
				if d == 0 {
					f.Matrix.Clauses = append(f.Matrix.Clauses, cur)
					cur = nil
					continue
				}
				// Range-check before the conversion: a literal beyond the
				// variable type's range would wrap into it.
				if d > f.Matrix.NumVars || d < -f.Matrix.NumVars {
					return nil, fmt.Errorf("dqdimacs line %d: literal %d out of range (declared %d variables)",
						lineNo, d, f.Matrix.NumVars)
				}
				cur = append(cur, cnf.LitFromDimacs(d))
				lits++
			}
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	if len(cur) > 0 {
		f.Matrix.Clauses = append(f.Matrix.Clauses, cur)
	}
	items := len(f.Univ) + len(exists) + lits
	if n, limit := f.Matrix.NumVars, cnf.VarLimit(items); n > limit {
		return nil, fmt.Errorf("dqdimacs line %d: %d variables declared for %d quantified variables and literals (at most %d)",
			problemLine, n, items, limit)
	}
	for _, e := range exists {
		f.AddExistential(e.v, e.deps...)
	}
	// Free matrix variables become outermost existentials.
	quantified := NewVarSet(f.Univ...)
	for _, y := range f.Exist {
		quantified.Add(y)
	}
	var free []cnf.Var
	seen := NewVarSet()
	for _, c := range f.Matrix.Clauses {
		for _, l := range c {
			v := l.Var()
			if !quantified.Has(v) && !seen.Has(v) {
				seen.Add(v)
				free = append(free, v)
			}
		}
	}
	sort.Slice(free, func(i, j int) bool { return free[i] < free[j] })
	for _, v := range free {
		f.AddExistential(v)
	}
	if err := f.Validate(); err != nil {
		return nil, fmt.Errorf("dqdimacs: %w", err)
	}
	return f, nil
}

func scannerParseVarLine(toks []string, lineNo, numVars int) ([]cnf.Var, error) {
	var out []cnf.Var
	for i, tok := range toks {
		d, err := strconv.Atoi(tok)
		if err != nil {
			return nil, fmt.Errorf("dqdimacs line %d: bad variable %q", lineNo, tok)
		}
		if d == 0 {
			if i != len(toks)-1 {
				return nil, fmt.Errorf("dqdimacs line %d: trailing tokens after terminating 0", lineNo)
			}
			return out, nil
		}
		if d < 0 {
			return nil, fmt.Errorf("dqdimacs line %d: negative variable %d in prefix", lineNo, d)
		}
		if d > numVars {
			return nil, fmt.Errorf("dqdimacs line %d: variable %d out of range (declared %d variables)",
				lineNo, d, numVars)
		}
		out = append(out, cnf.Var(d))
	}
	return nil, fmt.Errorf("dqdimacs line %d: quantifier line not terminated by 0", lineNo)
}
