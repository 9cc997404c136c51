// Package circuit provides the gate-level combinational-circuit substrate for
// the PEC (partial equivalence checking) benchmarks of the paper's
// evaluation: a netlist model with evaluation, Tseitin CNF encoding, an
// ISCAS-85-style BENCH reader/writer, circuit generators for
// the seven benchmark families (adders, arbiter bitcell chains, lookahead
// arbiters, XOR chains, z4-style adders, comparators, C432-style priority
// logic), and fault injection for producing unrealizable instances.
package circuit

import "fmt"

// GateType enumerates the supported gate functions.
type GateType int

// Gate types. InputGate marks primary inputs; FreeGate marks signals with no
// driver (used for black-box outputs in incomplete circuits).
const (
	InputGate GateType = iota
	FreeGate
	Const0
	Const1
	BufGate
	NotGate
	AndGate
	OrGate
	NandGate
	NorGate
	XorGate
	XnorGate
)

var gateNames = map[GateType]string{
	InputGate: "INPUT", FreeGate: "FREE", Const0: "CONST0", Const1: "CONST1",
	BufGate: "BUF", NotGate: "NOT", AndGate: "AND", OrGate: "OR",
	NandGate: "NAND", NorGate: "NOR", XorGate: "XOR", XnorGate: "XNOR",
}

func (t GateType) String() string {
	if s, ok := gateNames[t]; ok {
		return s
	}
	return fmt.Sprintf("GateType(%d)", int(t))
}

// arity returns the allowed input count: (min, max); max -1 means unbounded.
func (t GateType) arity() (int, int) {
	switch t {
	case InputGate, FreeGate, Const0, Const1:
		return 0, 0
	case BufGate, NotGate:
		return 1, 1
	case XorGate, XnorGate:
		return 2, 2
	default:
		return 1, -1
	}
}

// Gate is one netlist node.
type Gate struct {
	Type GateType
	Name string
	Ins  []int // signal ids
}

// Circuit is a combinational netlist. Signals are identified by dense ids.
type Circuit struct {
	Gates   []Gate
	Inputs  []int // primary input ids in declaration order
	Outputs []int // primary output ids in declaration order
	byName  map[string]int
}

// New returns an empty circuit.
func New() *Circuit {
	return &Circuit{byName: make(map[string]int)}
}

// NumGates returns the number of signals (inputs included).
func (c *Circuit) NumGates() int { return len(c.Gates) }

// Signal returns the id of the named signal, or -1.
func (c *Circuit) Signal(name string) int {
	if id, ok := c.byName[name]; ok {
		return id
	}
	return -1
}

// Name returns the name of signal id.
func (c *Circuit) Name(id int) string { return c.Gates[id].Name }

// AddInput declares a primary input and returns its signal id.
func (c *Circuit) AddInput(name string) int {
	id := c.addGate(Gate{Type: InputGate, Name: name})
	c.Inputs = append(c.Inputs, id)
	return id
}

// AddFree declares an undriven signal (black-box output placeholder).
func (c *Circuit) AddFree(name string) int {
	return c.addGate(Gate{Type: FreeGate, Name: name})
}

// AddGate adds a gate driving a new signal and returns its id. Input ids
// must already exist (combinational circuits are acyclic by construction).
func (c *Circuit) AddGate(name string, t GateType, ins ...int) int {
	lo, hi := t.arity()
	if len(ins) < lo || (hi >= 0 && len(ins) > hi) {
		panic(fmt.Sprintf("circuit: %s gate %q with %d inputs", t, name, len(ins)))
	}
	for _, in := range ins {
		if in < 0 || in >= len(c.Gates) {
			panic(fmt.Sprintf("circuit: gate %q references unknown signal %d", name, in))
		}
	}
	return c.addGate(Gate{Type: t, Name: name, Ins: append([]int(nil), ins...)})
}

func (c *Circuit) addGate(g Gate) int {
	if g.Name == "" {
		g.Name = fmt.Sprintf("n%d", len(c.Gates))
	}
	if _, dup := c.byName[g.Name]; dup {
		panic(fmt.Sprintf("circuit: duplicate signal name %q", g.Name))
	}
	id := len(c.Gates)
	c.Gates = append(c.Gates, g)
	c.byName[g.Name] = id
	return id
}

// MarkOutput declares signal id a primary output.
func (c *Circuit) MarkOutput(id int) {
	if id < 0 || id >= len(c.Gates) {
		panic("circuit: unknown output signal")
	}
	c.Outputs = append(c.Outputs, id)
}

// Clone returns a deep copy.
func (c *Circuit) Clone() *Circuit {
	d := New()
	d.Gates = make([]Gate, len(c.Gates))
	for i, g := range c.Gates {
		d.Gates[i] = Gate{Type: g.Type, Name: g.Name, Ins: append([]int(nil), g.Ins...)}
		d.byName[g.Name] = i
	}
	d.Inputs = append([]int(nil), c.Inputs...)
	d.Outputs = append([]int(nil), c.Outputs...)
	return d
}

// evalGate computes a gate function over input values.
func evalGate(t GateType, vals []bool) bool {
	switch t {
	case Const0:
		return false
	case Const1:
		return true
	case BufGate:
		return vals[0]
	case NotGate:
		return !vals[0]
	case AndGate, NandGate:
		out := true
		for _, v := range vals {
			out = out && v
		}
		if t == NandGate {
			return !out
		}
		return out
	case OrGate, NorGate:
		out := false
		for _, v := range vals {
			out = out || v
		}
		if t == NorGate {
			return !out
		}
		return out
	case XorGate:
		return vals[0] != vals[1]
	case XnorGate:
		return vals[0] == vals[1]
	default:
		panic(fmt.Sprintf("circuit: cannot evaluate %v", t))
	}
}

// Eval evaluates the circuit under the given primary-input values (in
// Inputs order) and free-signal values (by signal id; may be nil when the
// circuit is complete). It returns the output values in Outputs order.
func (c *Circuit) Eval(inputs []bool, free map[int]bool) []bool {
	vals := c.EvalAll(inputs, free)
	out := make([]bool, len(c.Outputs))
	for i, id := range c.Outputs {
		out[i] = vals[id]
	}
	return out
}

// EvalAll is like Eval but returns the values of all signals, indexed by id.
func (c *Circuit) EvalAll(inputs []bool, free map[int]bool) []bool {
	if len(inputs) != len(c.Inputs) {
		panic(fmt.Sprintf("circuit: %d input values for %d inputs", len(inputs), len(c.Inputs)))
	}
	vals := make([]bool, len(c.Gates))
	for i, id := range c.Inputs {
		vals[id] = inputs[i]
	}
	var ins []bool
	for id, g := range c.Gates {
		switch g.Type {
		case InputGate:
			continue
		case FreeGate:
			vals[id] = free[id]
		default:
			ins = ins[:0]
			for _, in := range g.Ins {
				ins = append(ins, vals[in])
			}
			vals[id] = evalGate(g.Type, ins)
		}
	}
	return vals
}

// FreeSignals returns the ids of undriven signals.
func (c *Circuit) FreeSignals() []int {
	var out []int
	for id, g := range c.Gates {
		if g.Type == FreeGate {
			out = append(out, id)
		}
	}
	return out
}
