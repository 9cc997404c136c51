// Package aig implements And-Inverter Graphs (AIGs): Boolean-circuit
// representations built from two-input AND gates and edge complement bits
// (inverters). AIGs are the matrix representation of HQS, through its main
// loop and its linear phase, mirroring the aigpp library used in the paper.
//
// A Graph is a structurally hashed DAG. References (Ref) follow the AIGER
// literal convention: the constant false is Ref 0, true is Ref 1, and node i
// contributes references 2i (plain) and 2i+1 (complemented). Structural
// hashing with two-level simplification rules keeps the graph
// non-redundant; pseudo-canonicity in the FRAIG sense is restored on demand
// by SAT sweeping (see sweep.go).
//
// The package provides the full operation set HQS requires: Boolean
// connectives, composition (substitution of functions for input variables),
// cofactors, single-variable existential/universal quantification, support
// computation, Tseitin CNF export, exhaustive bit-parallel simulation, and
// the syntactic unit/pure-variable detection of the paper's Theorem 6.
package aig

import (
	"fmt"
	"math/bits"

	"repro/internal/cnf"
)

// Ref is an edge into the graph: a node index shifted left by one with the
// low bit holding the complement flag. Ref 0 is constant false, Ref 1
// constant true.
type Ref int32

// False and True are the constant references.
const (
	False Ref = 0
	True  Ref = 1
)

// Not returns the complement of r.
func (r Ref) Not() Ref { return r ^ 1 }

// compl reports whether r is complemented.
func (r Ref) compl() bool { return r&1 == 1 }

// node reports the node index of r.
func (r Ref) node() int32 { return int32(r) >> 1 }

// XorSign complements r when s is true.
func (r Ref) XorSign(s bool) Ref {
	if s {
		return r ^ 1
	}
	return r
}

// IsConst reports whether r is one of the constants.
func (r Ref) IsConst() bool { return r.node() == 0 }

// node is an AIG node: either an input (var != 0) or an AND gate.
type node struct {
	f0, f1 Ref     // fanins of an AND gate
	v      cnf.Var // nonzero for input nodes
}

// ErrNodeLimit is the panic value raised when the graph exceeds its node
// limit; solvers recover it to report memory-out.
type ErrNodeLimit struct{ Limit int }

func (e ErrNodeLimit) Error() string {
	return fmt.Sprintf("aig: node limit %d exceeded", e.Limit)
}

// Graph is a structurally hashed AIG manager.
type Graph struct {
	nodes  []node
	strash map[[2]Ref]Ref
	inputs map[cnf.Var]Ref // var -> plain input ref

	// NodeLimit, when positive, bounds the node count; exceeding it panics
	// with ErrNodeLimit (the analogue of the paper's 8 GB memory-out).
	NodeLimit int
}

// New returns an empty graph.
func New() *Graph {
	g := &Graph{
		strash: make(map[[2]Ref]Ref),
		inputs: make(map[cnf.Var]Ref),
	}
	g.nodes = append(g.nodes, node{}) // node 0: constant
	return g
}

// NumNodes returns the number of nodes (constant and inputs included).
func (g *Graph) NumNodes() int { return len(g.nodes) }

// Input returns the (plain) reference of the input node for variable v,
// creating it on first use.
func (g *Graph) Input(v cnf.Var) Ref {
	if v <= 0 {
		panic("aig: invalid input variable")
	}
	if r, ok := g.inputs[v]; ok {
		return r
	}
	r := g.newNode(node{v: v})
	g.inputs[v] = r
	return r
}

// InputVar returns the variable of an input reference, or 0 if r does not
// point at an input node.
func (g *Graph) InputVar(r Ref) cnf.Var {
	n := r.node()
	if n <= 0 || int(n) >= len(g.nodes) {
		return 0
	}
	return g.nodes[n].v
}

func (g *Graph) newNode(n node) Ref {
	if g.NodeLimit > 0 && len(g.nodes) >= g.NodeLimit {
		panic(ErrNodeLimit{g.NodeLimit})
	}
	g.nodes = append(g.nodes, n)
	return Ref(int32(len(g.nodes)-1) << 1)
}

// And returns a reference for a∧b, applying two-level simplification rules
// and structural hashing.
func (g *Graph) And(a, b Ref) Ref {
	r, key, ok := g.findAnd(a, b)
	if ok {
		return r
	}
	r = g.newNode(node{f0: key[0], f1: key[1]})
	g.strash[key] = r
	return r
}

// findAnd returns the reference And(a, b) would return and true when that
// needs no new node: a trivial rule applies or the structural hash holds
// the gate. Otherwise it returns false and the gate's hash key.
func (g *Graph) findAnd(a, b Ref) (Ref, [2]Ref, bool) {
	// Constant and trivial rules.
	switch {
	case a == False || b == False || a == b.Not():
		return False, [2]Ref{}, true
	case a == True:
		return b, [2]Ref{}, true
	case b == True:
		return a, [2]Ref{}, true
	case a == b:
		return a, [2]Ref{}, true
	}
	if a > b {
		a, b = b, a
	}
	key := [2]Ref{a, b}
	r, ok := g.strash[key]
	return r, key, ok
}

// Or returns a∨b.
func (g *Graph) Or(a, b Ref) Ref { return g.And(a.Not(), b.Not()).Not() }

// Xor returns a⊕b.
func (g *Graph) Xor(a, b Ref) Ref {
	return g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
}

// Ite returns if c then t else e.
func (g *Graph) Ite(c, t, e Ref) Ref {
	return g.Or(g.And(c, t), g.And(c.Not(), e))
}

// AndN returns the conjunction of all references (True for none), built as a
// balanced tree to keep depth logarithmic.
func (g *Graph) AndN(refs ...Ref) Ref {
	switch len(refs) {
	case 0:
		return True
	case 1:
		return refs[0]
	}
	mid := len(refs) / 2
	return g.And(g.AndN(refs[:mid]...), g.AndN(refs[mid:]...))
}

// OrN returns the disjunction of all references (False for none).
func (g *Graph) OrN(refs ...Ref) Ref {
	neg := make([]Ref, len(refs))
	for i, r := range refs {
		neg[i] = r.Not()
	}
	return g.AndN(neg...).Not()
}

// Eval evaluates the function rooted at r under the given input assignment.
func (g *Graph) Eval(r Ref, assign func(cnf.Var) bool) bool {
	memo := make(map[int32]bool)
	var rec func(Ref) bool
	rec = func(e Ref) bool {
		n := e.node()
		var val bool
		if n == 0 {
			val = false
		} else if cached, ok := memo[n]; ok {
			val = cached
		} else {
			nd := &g.nodes[n]
			if nd.v != 0 {
				val = assign(nd.v)
			} else {
				val = rec(nd.f0) && rec(nd.f1)
			}
			memo[n] = val
		}
		return val != e.compl()
	}
	return rec(r)
}

// coneNodes returns the node indices reachable from the roots (excluding the
// constant node) in ascending (topological) order. The walk marks nodes in a
// dense bitset over [0, largest root], and since node indices are a
// topological order by construction, one scan of the set emits the cone
// sorted: no hashing and no sort.
func (g *Graph) coneNodes(roots ...Ref) []int32 {
	var hi int32
	for _, r := range roots {
		hi = max(hi, r.node())
	}
	if hi == 0 {
		return nil
	}
	mark := make([]uint64, hi>>6+1)
	lo, count := hi, 0
	var stack []int32
	visit := func(n int32) {
		if n == 0 || mark[n>>6]&(1<<(n&63)) != 0 {
			return
		}
		mark[n>>6] |= 1 << (n & 63)
		lo = min(lo, n)
		count++
		stack = append(stack, n)
	}
	for _, r := range roots {
		visit(r.node())
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if nd := &g.nodes[n]; nd.v == 0 {
			visit(nd.f0.node())
			visit(nd.f1.node())
		}
	}
	out := make([]int32, 0, count)
	for w := lo >> 6; int(w) < len(mark); w++ {
		for word := mark[w]; word != 0; word &= word - 1 {
			out = append(out, w<<6|int32(bits.TrailingZeros64(word)))
		}
	}
	return out
}

// ConeRefs returns plain (uncomplemented) references for every node in the
// cone of r, in topological order.
func (g *Graph) ConeRefs(r Ref) []Ref {
	nodes := g.coneNodes(r)
	out := make([]Ref, len(nodes))
	for i, n := range nodes {
		out[i] = Ref(n << 1)
	}
	return out
}

// Fanins returns the fanin edges of an AND node and true, or zero values and
// false if r references an input or constant.
func (g *Graph) Fanins(r Ref) (f0, f1 Ref, isAnd bool) {
	n := r.node()
	if n <= 0 || int(n) >= len(g.nodes) || g.nodes[n].v != 0 {
		return 0, 0, false
	}
	return g.nodes[n].f0, g.nodes[n].f1, true
}

// Support returns the set of input variables the function rooted at r
// depends on syntactically.
func (g *Graph) Support(r Ref) map[cnf.Var]bool {
	out := make(map[cnf.Var]bool)
	for _, n := range g.coneNodes(r) {
		if v := g.nodes[n].v; v != 0 {
			out[v] = true
		}
	}
	return out
}

// ConeSize returns the number of AND nodes in the cone of r.
func (g *Graph) ConeSize(r Ref) int {
	c := 0
	for _, n := range g.coneNodes(r) {
		if g.nodes[n].v == 0 {
			c++
		}
	}
	return c
}

// String renders a short description of the graph.
func (g *Graph) String() string {
	return fmt.Sprintf("aig.Graph{nodes: %d, ands: %d, inputs: %d}",
		g.NumNodes(), g.NumNodes()-1-len(g.inputs), len(g.inputs))
}
