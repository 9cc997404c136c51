package oracle_test

import (
	"testing"

	"repro/internal/aig"
	"repro/internal/cnf"
	"repro/internal/oracle"
)

// TestIncrementalQueries drives several roots through one oracle and checks
// the reuse counters: one rebuild ever, every query after the first counted
// incremental, and Tseitin pushed as a delta (the second root re-encodes
// nothing below the shared cone).
func TestIncrementalQueries(t *testing.T) {
	g := aig.New()
	a, b, c := g.Input(1), g.Input(2), g.Input(3)
	o := oracle.New(g)

	ab := g.And(a, b)
	satisfiable, model, err := o.IsSatisfiable(ab, nil)
	if err != nil || !satisfiable {
		t.Fatalf("IsSatisfiable(a∧b) = %v, %v; want true", satisfiable, err)
	}
	if !model[1] || !model[2] {
		t.Fatalf("model %v does not satisfy a∧b", model)
	}
	encodedAfterFirst := o.Stats().EncodedNodes

	abc := g.And(ab, c)
	satisfiable, model, err = o.IsSatisfiable(abc, nil)
	if err != nil || !satisfiable {
		t.Fatalf("IsSatisfiable(a∧b∧c) = %v, %v; want true", satisfiable, err)
	}
	if !model[1] || !model[2] || !model[3] {
		t.Fatalf("model %v does not satisfy a∧b∧c", model)
	}
	contradiction := g.And(ab, a.Not())
	satisfiable, _, err = o.IsSatisfiable(contradiction, nil)
	if err != nil || satisfiable {
		t.Fatalf("IsSatisfiable(a∧b∧¬a) = %v, %v; want false", satisfiable, err)
	}

	st := o.Stats()
	if st.Queries != 3 || st.Incremental != 2 || st.Rebuilds != 1 {
		t.Fatalf("stats = %+v; want 3 queries, 2 incremental, 1 rebuild", st)
	}
	if st.EncodedNodes <= encodedAfterFirst {
		t.Fatalf("EncodedNodes %d did not grow past first query's %d", st.EncodedNodes, encodedAfterFirst)
	}
	if st.ArenaBytesHW <= 0 {
		t.Fatalf("ArenaBytesHW = %d; want > 0", st.ArenaBytesHW)
	}
	cm := st.Counters()
	if cm["oracle_queries"] != 3 || cm["oracle_incremental"] != 2 {
		t.Fatalf("Counters() = %v", cm)
	}
}

// TestConstRoots checks the constant shortcuts never touch the solver.
func TestConstRoots(t *testing.T) {
	o := oracle.New(aig.New())
	if ok, m, err := o.IsSatisfiable(aig.True, nil); !ok || err != nil || m == nil {
		t.Fatalf("True: %v %v %v", ok, m, err)
	}
	if ok, _, err := o.IsSatisfiable(aig.False, nil); ok || err != nil {
		t.Fatalf("False: %v %v", ok, err)
	}
	if st := o.Stats(); st.Queries != 0 {
		t.Fatalf("constant roots must not issue queries, got %+v", st)
	}
}

// TestProveEquiv checks both verdicts of the sweep-oracle interface on
// structurally distinct roots, and that a refutation exposes a true
// counterexample.
func TestProveEquiv(t *testing.T) {
	g := aig.New()
	a, b := g.Input(1), g.Input(2)
	o := oracle.New(g)

	ab := g.And(a, b)
	redundant := g.And(ab, a) // ≡ a∧b, but a distinct node
	if redundant == ab {
		t.Fatal("test needs structurally distinct, semantically equal roots")
	}
	proven, calls, cex := o.ProveEquiv(ab, redundant, 0, nil)
	if !proven || calls != 2 || cex != nil {
		t.Fatalf("ProveEquiv(a∧b, (a∧b)∧a) = %v in %d calls (cex %v); want proven in 2, no cex",
			proven, calls, cex != nil)
	}

	for _, pair := range [][2]aig.Ref{{ab, a}, {a, ab}, {ab, b.Not()}} {
		lhs, rhs := pair[0], pair[1]
		proven, calls, cex = o.ProveEquiv(lhs, rhs, 0, nil)
		if proven {
			t.Fatalf("ProveEquiv(%v, %v) must fail", lhs, rhs)
		}
		if calls < 1 || calls > 2 {
			t.Fatalf("calls = %d; want 1 or 2", calls)
		}
		if cex == nil {
			t.Fatalf("ProveEquiv(%v, %v): refuted without a counterexample", lhs, rhs)
		}
		if g.Eval(lhs, cex) == g.Eval(rhs, cex) {
			t.Fatalf("ProveEquiv(%v, %v): counterexample a=%v b=%v does not separate them",
				lhs, rhs, cex(1), cex(2))
		}
	}

	if arena, _ := o.Footprint(); arena <= 0 {
		t.Fatalf("Footprint arena = %d; want > 0", arena)
	}
}

// TestLitDeltaOnly checks the persistent oracle's encoding through its
// solver: re-asking about an encoded root adds no variables and no clause bytes,
// and a super-cone adds exactly its new nodes.
func TestLitDeltaOnly(t *testing.T) {
	g := aig.New()
	a, b, c := g.Input(1), g.Input(2), g.Input(3)
	ab := g.And(a, b)
	o := oracle.New(g)

	query := func(r aig.Ref) {
		t.Helper()
		if ok, _, err := o.IsSatisfiable(r, nil); !ok || err != nil {
			t.Fatalf("IsSatisfiable = %v, %v; want satisfiable", ok, err)
		}
	}
	query(ab)
	vars, arena := oracle.SolverSize(o)
	encoded := o.Stats().EncodedNodes
	if encoded != 3 {
		t.Fatalf("EncodedNodes = %d after a∧b; want 3", encoded)
	}
	query(ab)
	if v, ab := oracle.SolverSize(o); v != vars || ab != arena {
		t.Fatalf("second query grew the solver: vars %d→%d, arena bytes %d→%d", vars, v, arena, ab)
	}

	query(g.And(ab, c)) // new: c and the top AND
	if got := o.Stats().EncodedNodes; got != encoded+2 {
		t.Fatalf("EncodedNodes = %d after the super-cone; want %d", got, encoded+2)
	}
	if got, _ := oracle.SolverSize(o); got != vars+2 {
		t.Fatalf("NumVars = %d after the super-cone; want %d", got, vars+2)
	}
}

// TestPoolWorkerIdentity checks that a pool hands a sweep one stable
// oracle until it is retired, distinct from the main oracle, and aggregates
// the stats of live and retired oracles.
func TestPoolWorkerIdentity(t *testing.T) {
	g := aig.New()
	a, b := g.Input(1), g.Input(2)
	ab := g.And(a, b)
	redundant := g.And(ab, b)
	p := oracle.NewPool(g)

	sw := p.Oracle()
	if p.Oracle() != sw {
		t.Fatal("a sweep must get the same oracle every time")
	}
	if sw == aig.SweepOracle(p.Main()) {
		t.Fatal("the sweep oracle must not be the main oracle")
	}

	if proven, _, _ := sw.ProveEquiv(ab, redundant, 0, nil); !proven {
		t.Fatal("sweep oracle failed a provable equivalence")
	}
	if ok, _, err := p.Main().IsSatisfiable(ab, nil); !ok || err != nil {
		t.Fatalf("main oracle: %v %v", ok, err)
	}

	st := p.Stats()
	if st.Queries != 3 {
		t.Fatalf("pool queries = %d; want 3 (2 sweep + 1 main)", st.Queries)
	}
	if st.Rebuilds != 2 {
		t.Fatalf("pool rebuilds = %d; want 2 (main + sweep)", st.Rebuilds)
	}

	// Retiring the sweep oracle keeps its counters and hands the next sweep
	// a fresh oracle, whose rebuild and queries add to the retired ones.
	p.Retire()
	if got := p.Stats(); got != st {
		t.Fatalf("stats after retiring = %+v; want %+v", got, st)
	}
	fresh := p.Oracle()
	if fresh == sw {
		t.Fatal("a retired sweep oracle was handed out again")
	}
	if proven, _, _ := fresh.ProveEquiv(ab, redundant, 0, nil); !proven {
		t.Fatal("fresh sweep oracle failed a provable equivalence")
	}
	st = p.Stats()
	if st.Queries != 5 || st.Rebuilds != 3 || st.Incremental != 2 {
		t.Fatalf("pool stats after a second sweep = %+v; want 5 queries, 3 rebuilds, 2 incremental", st)
	}
}

// TestStatsAdd checks flow-vs-high-water aggregation.
func TestStatsAdd(t *testing.T) {
	a := oracle.Stats{Queries: 2, Incremental: 1, Rebuilds: 1, LearntsRetained: 10, ArenaBytesHW: 100}
	b := oracle.Stats{Queries: 3, Rebuilds: 1, LearntsRetained: 4, ArenaBytesHW: 700}
	a.Add(b)
	if a.Queries != 5 || a.Incremental != 1 || a.Rebuilds != 2 {
		t.Fatalf("sums wrong: %+v", a)
	}
	if a.LearntsRetained != 10 || a.ArenaBytesHW != 700 {
		t.Fatalf("high-water marks wrong: %+v", a)
	}
}

// wideCone builds, over inputs base+1..base+w, two parities folded in
// opposite orders (equivalent, structurally distinct), the AND and the OR
// of the inputs, and a chain of alternating ANDs and ORs.
func wideCone(g *aig.Graph, base cnf.Var, w int) []aig.Ref {
	x := make([]aig.Ref, w)
	for i := range x {
		x[i] = g.Input(base + cnf.Var(i+1))
	}
	fwd, rev, and, or, chain := aig.False, aig.False, aig.True, aig.False, x[0]
	for i := range x {
		fwd = g.Xor(fwd, x[i])
		rev = g.Xor(x[w-1-i], rev)
		and = g.And(and, x[i])
		or = g.Or(or, x[i])
		if i > 0 && i%2 == 0 {
			chain = g.And(chain, x[i])
		} else if i > 0 {
			chain = g.Or(chain, x[i])
		}
	}
	return []aig.Ref{fwd, rev, and, or, chain}
}

// TestProveEquivStaysInCone checks that a sweep query decides and
// propagates only inside the cone of its pair: an oracle that has also
// encoded a second, disjoint wide cone answers every query on the first
// cone with exactly the decisions and propagations of an oracle that never
// encoded it. Every counterexample must separate its pair.
func TestProveEquivStaysInCone(t *testing.T) {
	const w = 12
	g := aig.New()
	first, second := wideCone(g, 0, w), wideCone(g, w, w)
	both, alone := oracle.New(g), oracle.New(g)
	for _, r := range first {
		oracle.Encode(both, r)
		oracle.Encode(alone, r)
	}
	for _, r := range second {
		oracle.Encode(both, r)
	}
	for i, lhs := range first {
		for _, rhs := range first[i+1:] {
			for _, rhs := range []aig.Ref{rhs, rhs.Not()} {
				proven, _, cex := both.ProveEquiv(lhs, rhs, 0, nil)
				want, _, _ := alone.ProveEquiv(lhs, rhs, 0, nil)
				if proven != want {
					t.Fatalf("ProveEquiv(%v, %v) = %v; the oracle without the second cone says %v", lhs, rhs, proven, want)
				}
				if got, want := oracle.SolverStats(both), oracle.SolverStats(alone); got.Decisions != want.Decisions || got.Propagations != want.Propagations {
					t.Fatalf("ProveEquiv(%v, %v) made %d decisions and %d propagations; without the second cone %d and %d",
						lhs, rhs, got.Decisions, got.Propagations, want.Decisions, want.Propagations)
				}
				if !proven && (cex == nil || g.Eval(lhs, cex) == g.Eval(rhs, cex)) {
					t.Fatalf("ProveEquiv(%v, %v): no counterexample separates them", lhs, rhs)
				}
				if proven && (lhs != first[0] || rhs != first[1]) {
					t.Fatalf("ProveEquiv(%v, %v) proved an inequivalent pair", lhs, rhs)
				}
			}
		}
	}
}
