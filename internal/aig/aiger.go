package aig

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cnf"
)

// WriteAAG writes the cones of the given output references in the ASCII
// AIGER format (aag). Input variables are emitted in ascending variable
// order; a comment section records the mapping from AIGER inputs back to
// the graph's variable numbers.
func (g *Graph) WriteAAG(w io.Writer, outputs ...Ref) error {
	cone := g.coneNodes(outputs...)
	// Partition into inputs and ANDs; assign AIGER indices.
	var inputs []int32
	var ands []int32
	for _, n := range cone {
		if g.nodes[n].v != 0 {
			inputs = append(inputs, n)
		} else {
			ands = append(ands, n)
		}
	}
	sort.Slice(inputs, func(i, j int) bool {
		return g.nodes[inputs[i]].v < g.nodes[inputs[j]].v
	})
	index := make(map[int32]int, len(cone)) // node -> AIGER variable index
	next := 1
	for _, n := range inputs {
		index[n] = next
		next++
	}
	for _, n := range ands { // already topological
		index[n] = next
		next++
	}
	lit := func(e Ref) int {
		n := e.node()
		if n == 0 {
			// AIGER: literal 0 = false, 1 = true.
			if e.compl() {
				return 1
			}
			return 0
		}
		l := 2 * index[n]
		if e.compl() {
			l++
		}
		return l
	}

	bw := bufio.NewWriter(w)
	maxVar := len(inputs) + len(ands)
	fmt.Fprintf(bw, "aag %d %d 0 %d %d\n", maxVar, len(inputs), len(outputs), len(ands))
	for _, n := range inputs {
		fmt.Fprintf(bw, "%d\n", 2*index[n])
	}
	for _, o := range outputs {
		fmt.Fprintf(bw, "%d\n", lit(o))
	}
	for _, n := range ands {
		nd := &g.nodes[n]
		fmt.Fprintf(bw, "%d %d %d\n", 2*index[n], lit(nd.f0), lit(nd.f1))
	}
	// Symbol table: map AIGER inputs to graph variables.
	for i, n := range inputs {
		fmt.Fprintf(bw, "i%d v%d\n", i, g.nodes[n].v)
	}
	fmt.Fprintln(bw, "c")
	fmt.Fprintln(bw, "written by repro/internal/aig")
	return bw.Flush()
}

// File is a parsed combinational AIGER circuit (ascii "aag" or binary
// "aig"). Latches are rejected — the solver stack is combinational. It is
// the one AIGER reader of the module: problem ingestion Tseitin-encodes it,
// and ReadAAG builds it into a graph for the certificate decoders.
type File struct {
	MaxVar  int
	Inputs  []int    // input literals (even, nonzero)
	Outputs []int    // output literals
	Ands    [][3]int // lhs, rhs0, rhs1
	InSyms  map[int]string
	OutSyms map[int]string
}

// ParseAIGER parses either AIGER flavor, dispatching on the header magic,
// and validates the result. Header counts beyond cnf.MaxVar are rejected.
// So is a header whose lines cannot fit in the bytes that follow it (each
// takes at least one: every input, output and and gate in the ascii flavor,
// every output and and gate in the binary one, whose inputs are implicit),
// or whose M exceeds cnf.VarLimit of those lines. Memory thus grows with
// the bytes actually read, the binary flavor's implicit inputs included.
func ParseAIGER(data []byte) (*File, error) {
	nl := bytes.IndexByte(data, '\n')
	header := data
	rest := []byte(nil)
	if nl >= 0 {
		header, rest = data[:nl], data[nl+1:]
	}
	fields := strings.Fields(string(header))
	if len(fields) != 6 || (fields[0] != "aag" && fields[0] != "aig") {
		return nil, fmt.Errorf("aiger: malformed header (want \"aag|aig M I L O A\")")
	}
	nums := make([]int, 5)
	for i, tok := range fields[1:] {
		n, err := strconv.Atoi(tok)
		if err != nil || n < 0 || n > cnf.MaxVar {
			return nil, fmt.Errorf("aiger: bad header count %q", tok)
		}
		nums[i] = n
	}
	m, nIn, nLatch, nOut, nAnd := nums[0], nums[1], nums[2], nums[3], nums[4]
	if nLatch != 0 {
		return nil, fmt.Errorf("aiger: %d latches not supported (combinational circuits only)", nLatch)
	}
	if nIn+nAnd > m {
		return nil, fmt.Errorf("aiger: header declares %d variables for %d inputs + %d ands", m, nIn, nAnd)
	}
	lines := nOut + nAnd
	if fields[0] == "aag" {
		lines += nIn
	}
	if lines > len(rest) {
		return nil, fmt.Errorf("aiger line 1: header declares %d lines, but only %d bytes follow", lines, len(rest))
	}
	if limit := cnf.VarLimit(lines); m > limit {
		return nil, fmt.Errorf("aiger line 1: header declares %d variables for %d lines (at most %d)", m, lines, limit)
	}
	af := &File{MaxVar: m, InSyms: map[int]string{}, OutSyms: map[int]string{}}
	var err error
	if fields[0] == "aag" {
		err = af.parseASCII(rest, nIn, nOut, nAnd)
	} else {
		err = af.parseBinary(rest, nIn, nOut, nAnd)
	}
	if err != nil {
		return nil, err
	}
	return af, af.validate()
}

// nextLine splits off the next line (no trailing newline kept).
func nextLine(data []byte) (line, rest []byte, ok bool) {
	if len(data) == 0 {
		return nil, nil, false
	}
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return data[:i], data[i+1:], true
	}
	return data, nil, true
}

func parseLits(line []byte, want int) ([]int, error) {
	fields := strings.Fields(string(line))
	if len(fields) != want {
		return nil, fmt.Errorf("aiger: want %d literals on line %q", want, string(line))
	}
	out := make([]int, want)
	for i, tok := range fields {
		n, err := strconv.Atoi(tok)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("aiger: bad literal %q", tok)
		}
		out[i] = n
	}
	return out, nil
}

func (af *File) parseASCII(data []byte, nIn, nOut, nAnd int) error {
	var line []byte
	var ok bool
	for i := 0; i < nIn; i++ {
		if line, data, ok = nextLine(data); !ok {
			return fmt.Errorf("aiger: truncated input section (%d of %d inputs)", i, nIn)
		}
		lits, err := parseLits(line, 1)
		if err != nil {
			return err
		}
		af.Inputs = append(af.Inputs, lits[0])
	}
	for i := 0; i < nOut; i++ {
		if line, data, ok = nextLine(data); !ok {
			return fmt.Errorf("aiger: truncated output section (%d of %d outputs)", i, nOut)
		}
		lits, err := parseLits(line, 1)
		if err != nil {
			return err
		}
		af.Outputs = append(af.Outputs, lits[0])
	}
	for i := 0; i < nAnd; i++ {
		if line, data, ok = nextLine(data); !ok {
			return fmt.Errorf("aiger: truncated and section (%d of %d ands)", i, nAnd)
		}
		lits, err := parseLits(line, 3)
		if err != nil {
			return err
		}
		af.Ands = append(af.Ands, [3]int{lits[0], lits[1], lits[2]})
	}
	return af.parseSymbols(data)
}

func (af *File) parseBinary(data []byte, nIn, nOut, nAnd int) error {
	// Inputs are implicit in the binary format: literals 2, 4, ..., 2*nIn.
	for i := 1; i <= nIn; i++ {
		af.Inputs = append(af.Inputs, 2*i)
	}
	var line []byte
	var ok bool
	for i := 0; i < nOut; i++ {
		if line, data, ok = nextLine(data); !ok {
			return fmt.Errorf("aiger: truncated output section (%d of %d outputs)", i, nOut)
		}
		lits, err := parseLits(line, 1)
		if err != nil {
			return err
		}
		af.Outputs = append(af.Outputs, lits[0])
	}
	// And definitions: lhs is implicit (2*(nIn+i+1)); the two right-hand
	// sides are delta-encoded LEB128 against it (lhs > rhs0 >= rhs1).
	pos := 0
	readDelta := func() (int, error) {
		x, shift := 0, 0
		for {
			if pos >= len(data) {
				return 0, io.ErrUnexpectedEOF
			}
			b := data[pos]
			pos++
			x |= int(b&0x7f) << shift
			if b&0x80 == 0 {
				return x, nil
			}
			shift += 7
			if shift > 35 {
				return 0, fmt.Errorf("aiger: delta code overflows")
			}
		}
	}
	for i := 0; i < nAnd; i++ {
		lhs := 2 * (nIn + i + 1)
		d0, err := readDelta()
		if err != nil {
			return fmt.Errorf("aiger: truncated and section (%d of %d ands): %v", i, nAnd, err)
		}
		d1, err := readDelta()
		if err != nil {
			return fmt.Errorf("aiger: truncated and section (%d of %d ands): %v", i, nAnd, err)
		}
		rhs0 := lhs - d0
		rhs1 := rhs0 - d1
		if d0 <= 0 || rhs1 < 0 {
			return fmt.Errorf("aiger: and %d violates lhs > rhs0 >= rhs1", i)
		}
		af.Ands = append(af.Ands, [3]int{lhs, rhs0, rhs1})
	}
	return af.parseSymbols(data[pos:])
}

// parseSymbols reads the optional symbol table ("i<pos> <name>" /
// "o<pos> <name>" lines) up to the optional comment section ("c" line).
func (af *File) parseSymbols(data []byte) error {
	for {
		line, rest, ok := nextLine(data)
		if !ok {
			return nil
		}
		data = rest
		s := strings.TrimRight(string(line), "\r")
		if s == "" {
			continue
		}
		if s == "c" {
			return nil // comment section: everything after is free-form
		}
		sp := strings.IndexByte(s, ' ')
		if sp <= 1 || (s[0] != 'i' && s[0] != 'o') {
			return fmt.Errorf("aiger: malformed symbol line %q", s)
		}
		pos, err := strconv.Atoi(s[1:sp])
		if err != nil || pos < 0 {
			return fmt.Errorf("aiger: bad symbol position in %q", s)
		}
		name := s[sp+1:]
		if name == "" {
			return fmt.Errorf("aiger: empty symbol name in %q", s)
		}
		switch s[0] {
		case 'i':
			if pos >= len(af.Inputs) {
				return fmt.Errorf("aiger: input symbol position %d out of range (%d inputs)", pos, len(af.Inputs))
			}
			if _, dup := af.InSyms[pos]; dup {
				return fmt.Errorf("aiger: duplicate symbol for input %d", pos)
			}
			af.InSyms[pos] = name
		case 'o':
			if pos >= len(af.Outputs) {
				return fmt.Errorf("aiger: output symbol position %d out of range (%d outputs)", pos, len(af.Outputs))
			}
			if _, dup := af.OutSyms[pos]; dup {
				return fmt.Errorf("aiger: duplicate symbol for output %d", pos)
			}
			af.OutSyms[pos] = name
		}
	}
}

// validate checks structural invariants shared by both flavors: inputs are
// even nonzero literals, every variable is defined exactly once (input or
// and), definitions stay within maxVar, and every referenced literal is a
// constant, an input, or a defined and gate.
func (af *File) validate() error {
	defined := make(map[int]bool, len(af.Inputs)+len(af.Ands)) // by variable index
	for i, l := range af.Inputs {
		if l <= 1 || l%2 != 0 {
			return fmt.Errorf("aiger: input %d literal %d must be a positive even literal", i, l)
		}
		v := l / 2
		if v > af.MaxVar {
			return fmt.Errorf("aiger: input literal %d exceeds declared maximum variable %d", l, af.MaxVar)
		}
		if defined[v] {
			return fmt.Errorf("aiger: variable %d defined twice", v)
		}
		defined[v] = true
	}
	for i, a := range af.Ands {
		lhs := a[0]
		if lhs <= 1 || lhs%2 != 0 {
			return fmt.Errorf("aiger: and %d lhs %d must be a positive even literal", i, lhs)
		}
		v := lhs / 2
		if v > af.MaxVar {
			return fmt.Errorf("aiger: and lhs %d exceeds declared maximum variable %d", lhs, af.MaxVar)
		}
		if defined[v] {
			return fmt.Errorf("aiger: variable %d defined twice", v)
		}
		defined[v] = true
	}
	ref := func(l int, what string) error {
		if l < 0 || l/2 > af.MaxVar {
			return fmt.Errorf("aiger: %s literal %d out of range (maximum variable %d)", what, l, af.MaxVar)
		}
		if l > 1 && !defined[l/2] {
			return fmt.Errorf("aiger: %s literal %d references undefined variable %d", what, l, l/2)
		}
		return nil
	}
	for _, a := range af.Ands {
		if err := ref(a[1], "and rhs"); err != nil {
			return err
		}
		if err := ref(a[2], "and rhs"); err != nil {
			return err
		}
	}
	for _, o := range af.Outputs {
		if err := ref(o, "output"); err != nil {
			return err
		}
	}
	return nil
}

// ReadAAG builds the cones of an ASCII AIGER (aag) file, as parsed by
// ParseAIGER, into a fresh graph and returns one reference per output.
// AIGER inputs map to graph variables through the "iN vM" symbols WriteAAG
// writes, and to variables 1..I in input order otherwise. Latches are not
// supported, and every AND must follow the definitions of its inputs.
func ReadAAG(data []byte) (*Graph, []Ref, error) {
	if !bytes.HasPrefix(data, []byte("aag ")) {
		return nil, nil, fmt.Errorf("aiger: want an ascii \"aag\" file")
	}
	af, err := ParseAIGER(data)
	if err != nil {
		return nil, nil, err
	}
	vars := make([]cnf.Var, len(af.Inputs))
	for i := range vars {
		vars[i] = cnf.Var(i + 1)
		if sym := af.InSyms[i]; strings.HasPrefix(sym, "v") {
			if n, err := strconv.Atoi(sym[1:]); err == nil && n > 0 && n <= cnf.MaxVar {
				vars[i] = cnf.Var(n)
			}
		}
	}
	// Creating the inputs in ascending variable order numbers the graph the
	// way WriteAAG numbers the file, so writing a read graph and reading it
	// back reproduces it.
	g := New()
	sorted := slices.Clone(vars)
	slices.Sort(sorted)
	for _, v := range sorted {
		g.Input(v)
	}
	refOf := make(map[int]Ref, len(af.Inputs)+len(af.Ands)) // AIGER variable -> Ref
	for i, l := range af.Inputs {
		refOf[l/2] = g.Input(vars[i])
	}
	resolve := func(l int) (Ref, error) {
		if l < 2 {
			return Ref(l), nil // constants
		}
		r, ok := refOf[l/2]
		if !ok {
			return 0, fmt.Errorf("aiger: literal %d used before definition", l)
		}
		return r.XorSign(l%2 == 1), nil
	}
	for _, a := range af.Ands {
		r0, err := resolve(a[1])
		if err != nil {
			return nil, nil, err
		}
		r1, err := resolve(a[2])
		if err != nil {
			return nil, nil, err
		}
		refOf[a[0]/2] = g.And(r0, r1)
	}
	outs := make([]Ref, len(af.Outputs))
	for i, l := range af.Outputs {
		if outs[i], err = resolve(l); err != nil {
			return nil, nil, err
		}
	}
	return g, outs, nil
}
