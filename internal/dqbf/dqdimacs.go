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

// ParseDQDIMACS reads a formula in DQDIMACS format, the DQBF extension of
// QDIMACS used by iDQ and HQS:
//
//	p cnf <vars> <clauses>
//	a x1 x2 ... 0        universal variables
//	e y1 y2 ... 0        existentials depending on all universals so far
//	d y x1 x2 ... 0      existential y with explicit dependency set
//	<clauses>
//
// Plain QDIMACS files (alternating a/e lines) are therefore parsed as the
// equivalent DQBF. Variables not mentioned in the prefix but used in the
// matrix are treated as outermost existentials (empty dependency set), the
// QDIMACS convention for free variables.
//
// The reader is strict: the problem line must precede the prefix and matrix
// and occur exactly once, quantifier lines must be 0-terminated with nothing
// after the terminator, and every variable and literal must lie within the
// declared variable range. The prefix must pass Validate: no variable is
// quantified twice, and every dependency is a universal other than the
// existential itself. Violations are reported with their line number,
// except a dependency on a variable the prefix never makes universal, which
// shows only once the whole input is read. The declared variable count may
// not exceed cnf.VarLimit of the quantified variables and literals the input
// holds; the existentials' dependency sets, which are sized by variable, are
// built only once that is checked.
func ParseDQDIMACS(r io.Reader) (*Formula, error) {
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
			vars, err := parseVarLine(fields[1:], lineNo, f.Matrix.NumVars)
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
	quantified := NewVarSet(f.Univ...).Union(NewVarSet(f.Exist...))
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

func parseVarLine(toks []string, lineNo, numVars int) ([]cnf.Var, error) {
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

// ParseDQDIMACSString parses a DQDIMACS formula from a string.
func ParseDQDIMACSString(s string) (*Formula, error) {
	return ParseDQDIMACS(strings.NewReader(s))
}

// WriteDQDIMACS writes the formula in DQDIMACS format. Existentials whose
// dependency set equals the full universal set are emitted with an "e" line
// after all universals; all others get explicit "d" lines.
// WriteQDIMACS writes the formula in plain QDIMACS, the linear-prefix
// subset of DQDIMACS: alternating "a"/"e" blocks, no "d" lines. It fails
// when the formula is not linear — i.e. when some existential's dependency
// set is not exactly a prefix of the universal order — since QDIMACS cannot
// express such a formula without changing its meaning.
//
// The writer preserves quantifier-block order exactly: existentials are
// grouped by dependency-prefix length with a stable sort, so a
// write→parse→write round trip is a byte-level fixpoint (the parser maps
// each "e" block back to the universals declared before it).
func (f *Formula) WriteQDIMACS(w io.Writer) error {
	pos := make(map[cnf.Var]int, len(f.Univ))
	for i, x := range f.Univ {
		pos[x] = i
	}
	type block struct {
		y cnf.Var
		k int
	}
	exs := make([]block, 0, len(f.Exist))
	for _, y := range f.Exist {
		d := f.Deps[y]
		k := d.Len()
		for _, x := range d.Vars() {
			i, ok := pos[x]
			if !ok || i >= k {
				return fmt.Errorf("qdimacs: existential %d depends on %s, not a prefix of the universal order (formula is not linear)", y, d)
			}
		}
		exs = append(exs, block{y, k})
	}
	sort.SliceStable(exs, func(i, j int) bool { return exs[i].k < exs[j].k })
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p cnf %d %d\n", f.Matrix.NumVars, len(f.Matrix.Clauses))
	emitted := 0
	for i := 0; i < len(exs); {
		k := exs[i].k
		if k > emitted {
			fmt.Fprint(bw, "a")
			for _, x := range f.Univ[emitted:k] {
				fmt.Fprintf(bw, " %d", x)
			}
			fmt.Fprintln(bw, " 0")
			emitted = k
		}
		fmt.Fprint(bw, "e")
		for ; i < len(exs) && exs[i].k == k; i++ {
			fmt.Fprintf(bw, " %d", exs[i].y)
		}
		fmt.Fprintln(bw, " 0")
	}
	if emitted < len(f.Univ) {
		fmt.Fprint(bw, "a")
		for _, x := range f.Univ[emitted:] {
			fmt.Fprintf(bw, " %d", x)
		}
		fmt.Fprintln(bw, " 0")
	}
	for _, c := range f.Matrix.Clauses {
		for _, l := range c {
			fmt.Fprintf(bw, "%d ", l.Dimacs())
		}
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}

func (f *Formula) WriteDQDIMACS(w io.Writer) error {
	bw := bufio.NewWriter(w)
	fmt.Fprintf(bw, "p cnf %d %d\n", f.Matrix.NumVars, len(f.Matrix.Clauses))
	if len(f.Univ) > 0 {
		fmt.Fprint(bw, "a")
		for _, v := range f.Univ {
			fmt.Fprintf(bw, " %d", v)
		}
		fmt.Fprintln(bw, " 0")
	}
	all := f.UniversalSet()
	var full []cnf.Var
	for _, y := range f.Exist {
		if f.Deps[y].Equal(all) {
			full = append(full, y)
		}
	}
	if len(full) > 0 {
		fmt.Fprint(bw, "e")
		for _, v := range full {
			fmt.Fprintf(bw, " %d", v)
		}
		fmt.Fprintln(bw, " 0")
	}
	for _, y := range f.Exist {
		if f.Deps[y].Equal(all) {
			continue
		}
		fmt.Fprintf(bw, "d %d", y)
		for _, x := range f.Deps[y].Vars() {
			fmt.Fprintf(bw, " %d", x)
		}
		fmt.Fprintln(bw, " 0")
	}
	for _, c := range f.Matrix.Clauses {
		for _, l := range c {
			fmt.Fprintf(bw, "%d ", l.Dimacs())
		}
		fmt.Fprintln(bw, "0")
	}
	return bw.Flush()
}
