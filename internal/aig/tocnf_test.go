package aig

import (
	"testing"

	"repro/internal/cnf"
	"repro/internal/sat"
)

// TestCNFBuilderDeltaOnly pins the incremental encoding: a second Lit on an
// encoded root adds no variables and no clause bytes, and a super-cone allocates
// exactly its new nodes, in ascending node order, after the old ones. The
// numbering is what makes every solver run reproducible query for query.
func TestCNFBuilderDeltaOnly(t *testing.T) {
	g := New()
	x := []Ref{g.Input(1), g.Input(2), g.Input(3), g.Input(4)}
	ab := g.And(x[0], x[1])
	sub := g.Or(ab, g.And(x[1], x[2].Not()))
	s := sat.New()
	b := NewCNFBuilder(g, s)

	l := b.Lit(sub)
	vars, arena, encoded := s.NumVars(), s.ArenaBytes(), b.EncodedNodes()
	if want := len(g.coneNodes(sub)); encoded != want {
		t.Fatalf("EncodedNodes = %d; want the cone's %d nodes", encoded, want)
	}
	for _, r := range []Ref{sub, sub.Not(), ab, x[1]} {
		got := b.Lit(r)
		if r == sub && got != l {
			t.Fatalf("second Lit(sub) = %v; want %v", got, l)
		}
		if s.NumVars() != vars || s.ArenaBytes() != arena || b.EncodedNodes() != encoded {
			t.Fatalf("Lit(%v) on an encoded root grew the solver: vars %d→%d, arena bytes %d→%d",
				r, vars, s.NumVars(), arena, s.ArenaBytes())
		}
	}

	// A super-cone over the encoded one plus a fresh input and fresh gates.
	super := g.And(sub, g.Xor(ab, x[3]))
	oldVar := make(map[int32]cnf.Var)
	for _, n := range g.coneNodes(sub) {
		oldVar[n] = b.varOf(n)
	}
	b.Lit(super)
	var fresh []int32
	for _, n := range g.coneNodes(super) {
		if v, ok := oldVar[n]; ok {
			if b.varOf(n) != v {
				t.Fatalf("node %d was re-encoded: var %d→%d", n, v, b.varOf(n))
			}
			continue
		}
		fresh = append(fresh, n)
	}
	if got := b.EncodedNodes() - encoded; got != len(fresh) {
		t.Fatalf("super-cone encoded %d nodes; want its %d new ones", got, len(fresh))
	}
	for i, n := range fresh { // coneNodes is ascending
		if want := cnf.Var(vars + 1 + i); b.varOf(n) != want {
			t.Fatalf("new node %d got var %d; want %d (ascending node order)", n, b.varOf(n), want)
		}
	}
	if s.NumVars() != vars+len(fresh) {
		t.Fatalf("NumVars = %d; want %d", s.NumVars(), vars+len(fresh))
	}

	// The incremental encoding stays sound: super ∧ ¬sub is unsatisfiable.
	if st := s.SolveAssuming([]cnf.Lit{b.Lit(super), l.Not()}); st != sat.Unsat {
		t.Fatalf("super ∧ ¬sub = %v; want Unsat", st)
	}
}

// TestCNFBuilderCone checks that Cone returns exactly the SAT variables of
// the nodes in the cones of its two roots, constants included, whatever
// was encoded before.
func TestCNFBuilderCone(t *testing.T) {
	g := New()
	x := []Ref{g.Input(1), g.Input(2), g.Input(3), g.Input(4)}
	ab := g.And(x[0], x[1])
	or := g.Or(ab, g.And(x[1], x[2].Not()))
	xor := g.Xor(x[2], x[3])
	b := NewCNFBuilder(g, sat.New())
	b.Lit(g.And(or, xor)) // encodes more than any pair below reads
	for _, pair := range [][2]Ref{{ab, or}, {or, xor.Not()}, {x[3], ab}, {False, xor}, {True, True}} {
		want := map[cnf.Var]bool{}
		for _, r := range pair {
			if r.IsConst() {
				want[b.Lit(r).Var()] = true
				continue
			}
			for _, n := range g.coneNodes(r) {
				want[b.varOf(n)] = true
			}
		}
		got := b.Cone(pair[0], pair[1])
		seen := map[cnf.Var]bool{}
		for _, v := range got {
			if !want[v] || seen[v] {
				t.Fatalf("Cone(%v, %v) = %v; want each of %v once", pair[0], pair[1], got, want)
			}
			seen[v] = true
		}
		if len(seen) != len(want) {
			t.Fatalf("Cone(%v, %v) = %v; want %v", pair[0], pair[1], got, want)
		}
	}
}
