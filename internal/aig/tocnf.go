package aig

import (
	"slices"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// CNFBuilder incrementally Tseitin-encodes AIG cones into a SAT solver,
// reusing encodings across calls. It is the bridge between the AIG world and
// the CDCL oracle (SAT sweeping, final SAT checks, iDQ verification).
//
// The encoding is closed under fanins: an encoded node's whole cone is
// encoded. The AIG is append-only, so a Tseitin definition once pushed stays
// valid forever, and each Lit call pushes only the delta of newly reachable
// cone nodes.
type CNFBuilder struct {
	g       *Graph
	s       *sat.Solver
	nodeVar []cnf.Var // AIG node -> SAT variable; 0 = not encoded
	encoded int       // nodes with a SAT variable

	stack, delta []int32 // Lit's scratch space

	// Cone's scratch space: a node is in the current cone when its stamp
	// equals epoch.
	stamp []uint32
	epoch uint32
	scope []cnf.Var
}

// pendingVar marks a node collected into Lit's delta but not yet encoded.
const pendingVar cnf.Var = -1

// NewCNFBuilder returns a builder encoding cones of g into s.
func NewCNFBuilder(g *Graph, s *sat.Solver) *CNFBuilder {
	return &CNFBuilder{g: g, s: s}
}

// EncodedNodes returns how many AIG nodes currently have SAT encodings in
// this builder. The count only grows.
func (b *CNFBuilder) EncodedNodes() int { return b.encoded }

// varOf returns the SAT variable of node n, or 0 if n is not encoded.
func (b *CNFBuilder) varOf(n int32) cnf.Var {
	if int(n) < len(b.nodeVar) {
		return b.nodeVar[n]
	}
	return 0
}

// InputValue returns the value of input variable v under the solver model m.
// An input without an encoding occurs in no encoded cone, so any value is
// consistent with m; it reads as false, and nothing is allocated for it.
func (b *CNFBuilder) InputValue(m cnf.Assignment, v cnf.Var) bool {
	r, ok := b.g.inputs[v]
	if !ok {
		return false
	}
	sv := b.varOf(r.node())
	return sv > 0 && m.Get(sv)
}

// Lit encodes the cone of r (if not yet encoded) and returns the SAT literal
// equivalent to r. An encoded root returns at once. Otherwise a DFS that
// stops at encoded nodes collects the unencoded part of the cone, which is
// encoded in ascending node order, so SAT variables are numbered exactly as
// if the whole cone were walked in topological order.
func (b *CNFBuilder) Lit(r Ref) cnf.Lit {
	n := r.node()
	if n == 0 || b.varOf(n) != 0 {
		return b.edgeLit(r)
	}
	b.grow()
	stack, delta := append(b.stack[:0], n), b.delta[:0]
	b.nodeVar[n] = pendingVar
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		delta = append(delta, n)
		if nd := &b.g.nodes[n]; nd.v == 0 {
			for _, c := range [2]int32{nd.f0.node(), nd.f1.node()} {
				if c != 0 && b.nodeVar[c] == 0 {
					b.nodeVar[c] = pendingVar
					stack = append(stack, c)
				}
			}
		}
	}
	slices.Sort(delta)
	for _, n := range delta {
		sv := b.newVar(n)
		nd := &b.g.nodes[n]
		if nd.v != 0 {
			continue // inputs are free variables
		}
		gl := cnf.PosLit(sv)
		a := b.edgeLit(nd.f0)
		c := b.edgeLit(nd.f1)
		// g ↔ a ∧ c
		b.s.AddClause(gl.Not(), a)
		b.s.AddClause(gl.Not(), c)
		b.s.AddClause(gl, a.Not(), c.Not())
	}
	b.stack, b.delta = stack, delta
	return b.edgeLit(r)
}

// Cone encodes the cones of lhs and rhs (if not yet encoded) and returns
// the SAT variables of their joint cone, the scope under which
// sat.Solver.Solve may answer a query over lhs and rhs: the cone is
// fanin-closed, so every satisfying assignment of it extends to the other
// encoded nodes by evaluating the graph. The slice is reused by the next
// call.
func (b *CNFBuilder) Cone(lhs, rhs Ref) []cnf.Var {
	b.Lit(lhs)
	b.Lit(rhs)
	if n := len(b.nodeVar); len(b.stamp) < n {
		b.stamp = append(b.stamp, make([]uint32, n-len(b.stamp))...)
	}
	b.epoch++
	if b.epoch == 0 {
		clear(b.stamp)
		b.epoch = 1
	}
	stack, scope := b.stack[:0], b.scope[:0]
	for _, n := range [2]int32{lhs.node(), rhs.node()} {
		if b.stamp[n] != b.epoch {
			b.stamp[n] = b.epoch
			stack = append(stack, n)
		}
	}
	for len(stack) > 0 {
		n := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		scope = append(scope, b.nodeVar[n])
		if nd := &b.g.nodes[n]; nd.v == 0 {
			for _, c := range [2]int32{nd.f0.node(), nd.f1.node()} {
				if b.stamp[c] != b.epoch {
					b.stamp[c] = b.epoch
					stack = append(stack, c)
				}
			}
		}
	}
	b.stack, b.scope = stack, scope
	return scope
}

// grow extends nodeVar to cover every node of the graph.
func (b *CNFBuilder) grow() {
	if n := len(b.g.nodes); len(b.nodeVar) < n {
		b.nodeVar = append(b.nodeVar, make([]cnf.Var, n-len(b.nodeVar))...)
	}
}

// newVar allocates the SAT variable of node n.
func (b *CNFBuilder) newVar(n int32) cnf.Var {
	sv := b.s.NewVar()
	b.nodeVar[n] = sv
	b.encoded++
	return sv
}

func (b *CNFBuilder) edgeLit(e Ref) cnf.Lit {
	n := e.node()
	if n == 0 {
		b.grow()
		tv := b.nodeVar[0]
		if tv == 0 {
			tv = b.newVar(0)
		}
		b.s.AddClause(cnf.PosLit(tv))
		// Ref 0 = false, Ref 1 = true.
		return cnf.NewLit(tv, !e.compl())
	}
	return cnf.NewLit(b.nodeVar[n], false).XorSign(e.compl())
}

// ToFormula Tseitin-encodes the cone of r into a standalone CNF formula.
// Input variables keep their AIG variable numbers; internal gate variables
// are allocated above maxInputVar (which is raised to the largest support
// variable if needed). It returns the formula and the literal equivalent
// to r; asserting that literal makes the formula equisatisfiable with r.
func (g *Graph) ToFormula(r Ref, maxInputVar cnf.Var) (*cnf.Formula, cnf.Lit) {
	if r.IsConst() {
		f := cnf.NewFormula(int(maxInputVar))
		// Represent with a fresh variable forced appropriately.
		t := f.NewVar()
		f.AddClause(cnf.PosLit(t))
		return f, cnf.NewLit(t, !r.compl())
	}
	f, lits := g.coneCNF(g.indexCone(r), maxInputVar)
	// The root is the cone's largest node, so it holds the last position.
	return f, lits[len(lits)-1].XorSign(r.compl())
}

// coneCNF Tseitin-encodes a whole indexed cone into a standalone CNF formula
// and returns, along with it, the positive literal of every cone position.
// Input variables keep their AIG variable numbers; gate variables are
// allocated above maxInputVar (raised to the largest support variable if
// needed), in ascending node order.
func (g *Graph) coneCNF(c *coneIndex, maxInputVar cnf.Var) (*cnf.Formula, []cnf.Lit) {
	if n := len(c.inputs); n > 0 {
		maxInputVar = max(maxInputVar, c.vars[c.inputs[n-1]])
	}
	f := cnf.NewFormula(int(maxInputVar))
	lits := make([]cnf.Lit, len(c.fanin))
	edgeLit := func(e int32) cnf.Lit { return lits[e>>1].XorSign(e&1 == 1) }
	for p := 1; p < len(lits); p++ {
		if v := c.vars[p]; v != 0 {
			lits[p] = cnf.PosLit(v)
			continue
		}
		gl := cnf.PosLit(f.NewVar())
		a, b := edgeLit(c.fanin[p][0]), edgeLit(c.fanin[p][1])
		f.AddClause(gl.Not(), a)
		f.AddClause(gl.Not(), b)
		f.AddClause(gl, a.Not(), b.Not())
		lits[p] = gl
	}
	return f, lits
}

// IsSatisfiable checks satisfiability of the function rooted at r with a
// fresh CDCL solver. If sat, it also returns a satisfying input assignment.
func (g *Graph) IsSatisfiable(r Ref) (bool, map[cnf.Var]bool) {
	if r == True {
		return true, map[cnf.Var]bool{}
	}
	if r == False {
		return false, nil
	}
	s := sat.New()
	b := NewCNFBuilder(g, s)
	s.AddClause(b.Lit(r))
	if st, _ := s.Solve(nil, nil); st != sat.Sat {
		return false, nil
	}
	m := s.Model()
	out := make(map[cnf.Var]bool)
	for v := range g.Support(r) {
		out[v] = b.InputValue(m, v)
	}
	return true, out
}

// Equivalent checks whether the functions rooted at a and b are equivalent,
// using SAT on the XOR miter.
func (g *Graph) Equivalent(a, b Ref) bool {
	miter := g.Xor(a, b)
	sat, _ := g.IsSatisfiable(miter)
	return !sat
}
