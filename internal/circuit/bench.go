package circuit

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"sort"
	"strings"
)

// ParseBench reads a circuit in the ISCAS-85 BENCH format:
//
//	INPUT(a)
//	OUTPUT(f)
//	f = AND(a, b)
//	g = NOT(f)
//
// Gate lines may reference signals defined later; a topological order is
// established after parsing. Unknown driven signals become FREE gates
// (black-box outputs), which is how incomplete BENCH netlists are written.
// Lines may be up to 16 MiB long.
func ParseBench(data []byte) (*Circuit, error) {
	type rawGate struct {
		name string
		typ  GateType
		ins  []string
	}
	var raws []rawGate
	var inputs, outputs []string
	sc := bufio.NewScanner(bytes.NewReader(data))
	sc.Buffer(make([]byte, 0, min(len(data)+1, 1<<16)), 1<<24)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		switch {
		case strings.HasPrefix(strings.ToUpper(line), "INPUT("):
			name, err := parenArg(line)
			if err != nil {
				return nil, fmt.Errorf("bench line %d: %v", lineNo, err)
			}
			inputs = append(inputs, name)
		case strings.HasPrefix(strings.ToUpper(line), "OUTPUT("):
			name, err := parenArg(line)
			if err != nil {
				return nil, fmt.Errorf("bench line %d: %v", lineNo, err)
			}
			outputs = append(outputs, name)
		default:
			eq := strings.Index(line, "=")
			if eq < 0 {
				return nil, fmt.Errorf("bench line %d: expected assignment, got %q", lineNo, line)
			}
			name := strings.TrimSpace(line[:eq])
			rhs := strings.TrimSpace(line[eq+1:])
			op := strings.Index(rhs, "(")
			cp := strings.LastIndex(rhs, ")")
			if op < 0 || cp < op {
				return nil, fmt.Errorf("bench line %d: malformed gate %q", lineNo, line)
			}
			tname := strings.ToUpper(strings.TrimSpace(rhs[:op]))
			var typ GateType
			switch tname {
			case "AND":
				typ = AndGate
			case "OR":
				typ = OrGate
			case "NAND":
				typ = NandGate
			case "NOR":
				typ = NorGate
			case "XOR":
				typ = XorGate
			case "XNOR":
				typ = XnorGate
			case "NOT", "INV":
				typ = NotGate
			case "BUF", "BUFF":
				typ = BufGate
			default:
				return nil, fmt.Errorf("bench line %d: unknown gate type %q", lineNo, tname)
			}
			var ins []string
			for _, tok := range strings.Split(rhs[op+1:cp], ",") {
				tok = strings.TrimSpace(tok)
				if tok == "" {
					return nil, fmt.Errorf("bench line %d: empty input name", lineNo)
				}
				ins = append(ins, tok)
			}
			if name == "" {
				return nil, fmt.Errorf("bench line %d: empty signal name in %q", lineNo, line)
			}
			// Reject arity violations here with a line number instead of
			// letting AddGate panic on them during circuit construction.
			if lo, hi := typ.arity(); len(ins) < lo || (hi >= 0 && len(ins) > hi) {
				return nil, fmt.Errorf("bench line %d: %s gate %q with %d inputs", lineNo, tname, name, len(ins))
			}
			raws = append(raws, rawGate{name: name, typ: typ, ins: ins})
		}
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	c := New()
	for _, name := range inputs {
		c.AddInput(name)
	}
	// Any referenced-but-undriven signal becomes a FREE gate.
	driven := make(map[string]bool)
	for _, name := range inputs {
		driven[name] = true
	}
	byName := make(map[string]rawGate)
	for _, rg := range raws {
		if driven[rg.name] {
			return nil, fmt.Errorf("bench: signal %q driven twice", rg.name)
		}
		driven[rg.name] = true
		byName[rg.name] = rg
	}
	var freeNames []string
	seenFree := map[string]bool{}
	for _, rg := range raws {
		for _, in := range rg.ins {
			if !driven[in] && !seenFree[in] {
				seenFree[in] = true
				freeNames = append(freeNames, in)
			}
		}
	}
	sort.Strings(freeNames)
	for _, name := range freeNames {
		c.AddFree(name)
	}
	// Topological insertion with an explicit DFS.
	state := make(map[string]int) // 0 new, 1 visiting, 2 done
	var visit func(name string) error
	visit = func(name string) error {
		if c.Signal(name) >= 0 && state[name] != 1 {
			return nil
		}
		switch state[name] {
		case 1:
			return fmt.Errorf("bench: combinational cycle through %q", name)
		case 2:
			return nil
		}
		state[name] = 1
		rg, ok := byName[name]
		if !ok {
			return fmt.Errorf("bench: undefined signal %q", name)
		}
		ins := make([]int, len(rg.ins))
		for i, in := range rg.ins {
			if err := visit(in); err != nil {
				return err
			}
			ins[i] = c.Signal(in)
		}
		state[name] = 2
		c.AddGate(rg.name, rg.typ, ins...)
		return nil
	}
	for _, rg := range raws {
		if err := visit(rg.name); err != nil {
			return nil, err
		}
	}
	for _, name := range outputs {
		id := c.Signal(name)
		if id < 0 {
			return nil, fmt.Errorf("bench: output %q undefined", name)
		}
		c.MarkOutput(id)
	}
	return c, nil
}

func parenArg(line string) (string, error) {
	op := strings.Index(line, "(")
	cp := strings.LastIndex(line, ")")
	if op < 0 || cp < op {
		return "", fmt.Errorf("malformed declaration %q", line)
	}
	name := strings.TrimSpace(line[op+1 : cp])
	if name == "" {
		return "", fmt.Errorf("empty name in %q", line)
	}
	return name, nil
}

// ParseBenchString parses a BENCH netlist from a string.
func ParseBenchString(s string) (*Circuit, error) {
	return ParseBench([]byte(s))
}

// WriteBench writes the circuit in BENCH format. FREE signals are emitted as
// comments (they have no BENCH syntax) and referenced by name.
func (c *Circuit) WriteBench(w io.Writer) error {
	bw := bufio.NewWriter(w)
	for _, id := range c.Inputs {
		fmt.Fprintf(bw, "INPUT(%s)\n", c.Name(id))
	}
	for _, id := range c.Outputs {
		fmt.Fprintf(bw, "OUTPUT(%s)\n", c.Name(id))
	}
	for id, g := range c.Gates {
		switch g.Type {
		case InputGate:
			continue
		case FreeGate:
			fmt.Fprintf(bw, "# FREE %s\n", g.Name)
			continue
		case Const0:
			fmt.Fprintf(bw, "# CONST0 %s\n", g.Name)
			continue
		case Const1:
			fmt.Fprintf(bw, "# CONST1 %s\n", g.Name)
			continue
		}
		names := make([]string, len(g.Ins))
		for i, in := range g.Ins {
			names[i] = c.Name(in)
		}
		tname := g.Type.String()
		if g.Type == BufGate {
			tname = "BUFF"
		}
		fmt.Fprintf(bw, "%s = %s(%s)\n", c.Name(id), tname, strings.Join(names, ", "))
		_ = id
	}
	return bw.Flush()
}
