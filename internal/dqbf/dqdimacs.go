package dqbf

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"unicode"
	"unicode/utf8"

	"repro/internal/cnf"
)

// maxLine is the longest line the reader accepts, in bytes before its
// newline; a longer line fails with bufio.ErrTooLong.
const maxLine = 1<<24 - 1

// ParseDQDIMACSBytes reads a formula in DQDIMACS format, the DQBF extension
// of QDIMACS used by iDQ and HQS:
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
//
// Lines end at '\n'. Fields are separated by any run of the runes
// unicode.IsSpace accepts, and a line whose first field starts with 'c' is
// a comment. Integers are read by strconv.Atoi. The reader makes
// one pass over data and allocates by len(data), never by the header: the
// clauses are capacity-limited sub-slices of one literal array, in which a
// 0 closes each clause, and the dependency sets share one word array.
func ParseDQDIMACSBytes(data []byte) (*Formula, error) {
	// An existential's dependency set is deps[lo:hi] for a "d" line and
	// univ[:hi] for an "e" line.
	type existential struct {
		v      cnf.Var
		fromD  bool
		lo, hi int
	}
	var (
		univ        []cnf.Var
		exists      []existential
		deps        []cnf.Var // the dependencies of every "d" line, in order
		lineVars    []cnf.Var // the variables of the current quantifier line
		marks       prefixMarks
		lits        = make([]cnf.Lit, 0, len(data)/2+1) // every clause, each closed by a 0
		numClauses  = 0
		clauseStart = 0
		numVars     = 0
		problemLine = 0
		lineNo      = 0
		prefixDone  = false
		sawProblem  = false
	)
	for rest := data; len(rest) > 0; {
		line := rest
		if i := bytes.IndexByte(rest, '\n'); i >= 0 {
			line, rest = rest[:i], rest[i+1:]
		} else {
			rest = nil
		}
		lineNo++
		if len(line) > maxLine {
			return nil, bufio.ErrTooLong
		}
		fs := fields{line: line}
		head := fs.next()
		if head == nil || head[0] == 'c' {
			continue
		}
		kind := byte(0)
		if len(head) == 1 {
			kind = head[0]
		}
		if !sawProblem && kind != 'p' {
			return nil, fmt.Errorf("dqdimacs line %d: %q before problem line", lineNo, head)
		}
		switch kind {
		case 'p':
			if sawProblem {
				return nil, fmt.Errorf("dqdimacs line %d: duplicate problem line", lineNo)
			}
			format, vars, count := fs.next(), fs.next(), fs.next()
			if count == nil || fs.next() != nil || string(format) != "cnf" {
				return nil, fmt.Errorf("dqdimacs line %d: malformed problem line (want \"p cnf <vars> <clauses>\")", lineNo)
			}
			n, ok := atoi(vars)
			if !ok || n < 0 || n > cnf.MaxVar {
				return nil, fmt.Errorf("dqdimacs line %d: bad variable count %q", lineNo, vars)
			}
			if k, ok := atoi(count); !ok || k < 0 {
				return nil, fmt.Errorf("dqdimacs line %d: bad clause count %q", lineNo, count)
			}
			numVars = n
			marks = newPrefixMarks(n, len(data))
			sawProblem = true
			problemLine = lineNo
		case 'a', 'e', 'd':
			if prefixDone {
				return nil, fmt.Errorf("dqdimacs line %d: quantifier line after clauses", lineNo)
			}
			var err error
			lineVars, err = parseVarLine(&fs, lineVars[:0], lineNo, numVars)
			if err != nil {
				return nil, err
			}
			vars := lineVars
			if kind == 'd' {
				if len(vars) == 0 {
					return nil, fmt.Errorf("dqdimacs line %d: empty d line", lineNo)
				}
				// A dependency on a variable quantified only later is left
				// to the check at the end.
				for _, d := range vars[1:] {
					if d == vars[0] {
						return nil, fmt.Errorf("dqdimacs line %d: existential %d depends on itself", lineNo, d)
					}
					if quantified, universal := marks.lookup(d); quantified && !universal {
						return nil, fmt.Errorf("dqdimacs line %d: existential %d depends on existential %d", lineNo, vars[0], d)
					}
				}
				vars = vars[:1]
			}
			for _, v := range vars {
				if quantified, _ := marks.lookup(v); quantified {
					return nil, fmt.Errorf("dqdimacs line %d: variable %d quantified twice", lineNo, v)
				}
				marks.mark(v, kind == 'a')
			}
			switch kind {
			case 'a':
				univ = append(univ, vars...)
			case 'e':
				for _, v := range vars {
					exists = append(exists, existential{v: v, hi: len(univ)})
				}
			case 'd':
				lo := len(deps)
				deps = append(deps, lineVars[1:]...)
				exists = append(exists, existential{v: vars[0], fromD: true, lo: lo, hi: len(deps)})
			}
		default:
			prefixDone = true
			for tok := head; tok != nil; tok = fs.next() {
				d, ok := atoi(tok)
				if !ok {
					return nil, fmt.Errorf("dqdimacs line %d: bad literal %q", lineNo, tok)
				}
				if d == 0 {
					lits = append(lits, 0)
					numClauses++
					clauseStart = len(lits)
					continue
				}
				// Range-check before the conversion: a literal beyond the
				// variable type's range would wrap into it.
				if d > numVars || d < -numVars {
					return nil, fmt.Errorf("dqdimacs line %d: literal %d out of range (declared %d variables)",
						lineNo, d, numVars)
				}
				lits = append(lits, cnf.LitFromDimacs(d))
			}
		}
	}
	if len(lits) > clauseStart {
		lits = append(lits, 0)
		numClauses++
	}
	items := len(univ) + len(exists) + len(lits) - numClauses
	if limit := cnf.VarLimit(items); numVars > limit {
		return nil, fmt.Errorf("dqdimacs line %d: %d variables declared for %d quantified variables and literals (at most %d)",
			problemLine, numVars, items, limit)
	}
	// Free matrix variables become outermost existentials. Past the limit
	// check the marks are dense, so marking a free variable quantified
	// keeps it from being listed twice.
	var free []cnf.Var
	for _, l := range lits {
		if v := l.Var(); l != 0 && !marks.quant.Has(v) {
			marks.quant.Add(v)
			free = append(free, v)
		}
	}
	slices.Sort(free)

	// Each clause is capacity-limited, so it cannot grow into its successor.
	clauses := make([]cnf.Clause, 0, numClauses)
	start := 0
	for i, l := range lits {
		if l == 0 {
			var c cnf.Clause
			if i > start {
				c = lits[start:i:i]
			}
			clauses = append(clauses, c)
			start = i + 1
		}
	}

	// Build every dependency set into one word array, each as wide as
	// NewVarSet would make it.
	depsOf := func(e existential) []cnf.Var {
		if e.fromD {
			return deps[e.lo:e.hi]
		}
		return univ[:e.hi]
	}
	total := 0
	for _, e := range exists {
		total += setWords(depsOf(e))
	}
	words := make([]uint64, total)
	sets := make([]VarSet, len(exists)+len(free))
	f := &Formula{
		Univ:   univ,
		Exist:  make([]cnf.Var, 0, len(sets)),
		Deps:   make(map[cnf.Var]*VarSet, len(sets)),
		Matrix: &cnf.Formula{NumVars: numVars, Clauses: clauses},
	}
	for i, e := range exists {
		ds := depsOf(e)
		if w := setWords(ds); w > 0 {
			sets[i].words, words = words[:w:w], words[w:]
		}
		for _, d := range ds {
			sets[i].words[int(d)/64] |= 1 << (uint(d) % 64)
		}
		f.Exist = append(f.Exist, e.v)
		f.Deps[e.v] = &sets[i]
	}
	for i, v := range free {
		f.Exist = append(f.Exist, v)
		f.Deps[v] = &sets[len(exists)+i]
	}
	// The line checks leave one Validate condition open: a dependency on a
	// variable the prefix never made universal.
	for i, e := range exists {
		if d := &sets[i]; !d.SubsetOf(&marks.univ) {
			return nil, fmt.Errorf("dqdimacs: dqbf: dependency set of %d contains non-universals: %v", e.v, d.Diff(&marks.univ))
		}
	}
	return f, nil
}

// ParseDQDIMACS reads all of r and parses it with ParseDQDIMACSBytes.
func ParseDQDIMACS(r io.Reader) (*Formula, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, err
	}
	return ParseDQDIMACSBytes(data)
}

// ParseDQDIMACSString parses a DQDIMACS formula from a string.
func ParseDQDIMACSString(s string) (*Formula, error) {
	return ParseDQDIMACSBytes([]byte(s))
}

// parseVarLine appends the variables of a quantifier line's remaining
// fields to out: positive, within the declared range, terminated by a 0
// that is the line's last field.
func parseVarLine(fs *fields, out []cnf.Var, lineNo, numVars int) ([]cnf.Var, error) {
	for tok := fs.next(); tok != nil; tok = fs.next() {
		d, ok := atoi(tok)
		if !ok {
			return nil, fmt.Errorf("dqdimacs line %d: bad variable %q", lineNo, tok)
		}
		if d == 0 {
			if fs.next() != nil {
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

// setWords is the number of words NewVarSet(vs...) holds.
func setWords(vs []cnf.Var) int {
	if len(vs) == 0 {
		return 0
	}
	return int(slices.Max(vs))/64 + 1
}

// fields splits a line where strings.Fields does: at every run of runes
// unicode.IsSpace accepts.
type fields struct {
	line []byte
	pos  int
}

// next returns the next field, or nil once the line is exhausted.
func (fs *fields) next() []byte {
	line, i := fs.line, fs.pos
	for i < len(line) {
		n := spaceWidth(line[i:])
		if n == 0 {
			break
		}
		i += n
	}
	start := i
	// A byte that starts no space rune is part of the field. Stepping over
	// it alone is exact: the bytes after a rune's first are continuation
	// bytes, which start no rune.
	for i < len(line) && spaceWidth(line[i:]) == 0 {
		i++
	}
	fs.pos = i
	if start == i {
		return nil
	}
	return line[start:i]
}

// spaceWidth returns the length of the unicode.IsSpace rune b starts with,
// or 0 if b does not start with one.
func spaceWidth(b []byte) int {
	if c := b[0]; c < utf8.RuneSelf {
		if c == ' ' || '\t' <= c && c <= '\r' {
			return 1
		}
		return 0
	}
	if r, n := utf8.DecodeRune(b); unicode.IsSpace(r) {
		return n
	}
	return 0
}

// atoi parses tok with strconv.Atoi. The conversion does not escape, so
// a token of up to 32 bytes is converted on the stack.
func atoi(tok []byte) (int, bool) {
	n, err := strconv.Atoi(string(tok))
	return n, err == nil
}

// prefixMarks records which variables the prefix quantifies and which of
// them are universal: two bitsets over 1..NumVars, sized once. An input
// whose header declares more variables than cnf.VarLimit allows for its
// length is rejected once read; until then its prefix marks live in a map,
// so no table grows with the header.
type prefixMarks struct {
	quant, univ VarSet
	sparse      map[cnf.Var]bool
}

func newPrefixMarks(numVars, inputLen int) prefixMarks {
	if numVars > cnf.VarLimit(inputLen) {
		return prefixMarks{sparse: make(map[cnf.Var]bool)}
	}
	w := numVars/64 + 1
	words := make([]uint64, 2*w)
	return prefixMarks{quant: VarSet{words[:w:w]}, univ: VarSet{words[w:]}}
}

// lookup reports whether v is quantified, and if so whether universally.
func (m *prefixMarks) lookup(v cnf.Var) (quantified, universal bool) {
	if m.sparse != nil {
		universal, quantified = m.sparse[v]
		return quantified, universal
	}
	return m.quant.Has(v), m.univ.Has(v)
}

// mark records v as quantified, universally or existentially.
func (m *prefixMarks) mark(v cnf.Var, universal bool) {
	if m.sparse != nil {
		m.sparse[v] = universal
		return
	}
	m.quant.Add(v)
	if universal {
		m.univ.Add(v)
	}
}

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

// WriteDQDIMACS writes the formula in DQDIMACS format. Existentials whose
// dependency set equals the full universal set are emitted with an "e" line
// after all universals; all others get explicit "d" lines.
//
// The text is built in one buffer and handed to w in a single Write.
func (f *Formula) WriteDQDIMACS(w io.Writer) error {
	n := len(f.Univ) + len(f.Exist)
	for _, c := range f.Matrix.Clauses {
		n += len(c) + 1
	}
	// Room for each number at the width of the largest variable, a sign
	// and a space; "d" lines with many dependencies grow it once more.
	b := make([]byte, 0, 32+n*(len(strconv.Itoa(f.Matrix.NumVars))+2))
	b = append(b, "p cnf "...)
	b = strconv.AppendInt(b, int64(f.Matrix.NumVars), 10)
	b = append(b, ' ')
	b = strconv.AppendInt(b, int64(len(f.Matrix.Clauses)), 10)
	b = append(b, '\n')
	if len(f.Univ) > 0 {
		b = appendVarLine(b, "a", f.Univ)
	}
	all := f.UniversalSet()
	var full []cnf.Var
	for _, y := range f.Exist {
		if f.Deps[y].Equal(all) {
			full = append(full, y)
		}
	}
	if len(full) > 0 {
		b = appendVarLine(b, "e", full)
	}
	var deps []cnf.Var
	for _, y := range f.Exist {
		if f.Deps[y].Equal(all) {
			continue
		}
		b = append(b, "d "...)
		b = strconv.AppendInt(b, int64(y), 10)
		deps = f.Deps[y].AppendVars(deps[:0])
		b = appendVarLine(b, "", deps)
	}
	for _, c := range f.Matrix.Clauses {
		for _, l := range c {
			b = strconv.AppendInt(b, int64(l.Dimacs()), 10)
			b = append(b, ' ')
		}
		b = append(b, "0\n"...)
	}
	_, err := w.Write(b)
	return err
}

// appendVarLine appends head, the variables each after a space, and the
// terminating " 0" line end.
func appendVarLine(b []byte, head string, vs []cnf.Var) []byte {
	b = append(b, head...)
	for _, v := range vs {
		b = append(b, ' ')
		b = strconv.AppendInt(b, int64(v), 10)
	}
	return append(b, " 0\n"...)
}
