package oracle_test

import (
	"testing"

	"repro/internal/aig"
	"repro/internal/cnf"
	"repro/internal/oracle"
	"repro/internal/sat"
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

// TestFailedAssumptionsSubset checks conflict-set extraction over assumption
// queries: only the responsible assumptions appear, negated.
func TestFailedAssumptionsSubset(t *testing.T) {
	g := aig.New()
	a, b, c := g.Input(1), g.Input(2), g.Input(3)
	o := oracle.New(g)

	root := o.Lit(g.And(a, b)) // forces a and b when assumed
	irrelevant := o.Lit(c)     // free
	la := o.Lit(a)

	st, err := o.QueryAssuming([]cnf.Lit{root, irrelevant, la.Not()}, nil)
	if err != nil || st != sat.Unsat {
		t.Fatalf("query = %v, %v; want Unsat", st, err)
	}
	failed := o.FailedAssumptions()
	if len(failed) == 0 {
		t.Fatal("empty conflict set")
	}
	for _, l := range failed {
		if l == irrelevant.Not() {
			t.Fatalf("irrelevant assumption reported in conflict set %v", failed)
		}
		if l != root.Not() && l != la {
			t.Fatalf("conflict set %v contains literal outside the negated assumptions", failed)
		}
	}
}

// TestScopeRetraction exercises the activation-literal protocol end to end:
// scratch clauses constrain only while their scope literal is assumed,
// CloseScope retracts them without rebuilding, and conflict-set extraction
// still works after retraction — assuming a closed scope's literal conflicts
// with the top-level retraction unit and the conflict set names it.
func TestScopeRetraction(t *testing.T) {
	g := aig.New()
	a := g.Input(1)
	o := oracle.New(g)
	la := o.Lit(a)

	act := o.OpenScope()
	o.AddScoped(act, la)       // scope forces a
	o.AddScoped(act, la.Not()) // ... and ¬a: contradictory inside the scope

	st, err := o.QueryAssuming([]cnf.Lit{act}, nil)
	if err != nil || st != sat.Unsat {
		t.Fatalf("query under contradictory scope = %v, %v; want Unsat", st, err)
	}

	// Without the scope the solver is unconstrained again.
	st, err = o.QueryAssuming([]cnf.Lit{la}, nil)
	if err != nil || st != sat.Sat {
		t.Fatalf("query outside scope = %v, %v; want Sat", st, err)
	}

	o.CloseScope(act)
	st, err = o.QueryAssuming([]cnf.Lit{la.Not()}, nil)
	if err != nil || st != sat.Sat {
		t.Fatalf("query after retraction = %v, %v; want Sat", st, err)
	}

	// Conflict-set extraction after retraction: act is now falsified at the
	// top level, so assuming it must fail with act in the extracted set.
	st, err = o.QueryAssuming([]cnf.Lit{act, la}, nil)
	if err != nil || st != sat.Unsat {
		t.Fatalf("assuming a retracted scope = %v, %v; want Unsat", st, err)
	}
	failed := o.FailedAssumptions()
	found := false
	for _, l := range failed {
		if l.Var() == act.Var() {
			found = true
		}
		if l == la.Not() {
			t.Fatalf("conflict set %v blames the satisfiable literal, not the retracted scope", failed)
		}
	}
	if !found {
		t.Fatalf("conflict set %v does not name the retracted scope literal", failed)
	}

	if st := o.Stats(); st.Scopes != 1 {
		t.Fatalf("Scopes = %d; want 1", st.Scopes)
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
// solver: re-asking for an encoded root adds no variables and no clauses,
// and a super-cone adds exactly its new nodes.
func TestLitDeltaOnly(t *testing.T) {
	g := aig.New()
	a, b, c := g.Input(1), g.Input(2), g.Input(3)
	ab := g.And(a, b)
	o := oracle.New(g)

	l := o.Lit(ab)
	vars, clauses, encoded := o.Solver().NumVars(), o.Solver().NumClauses(), o.Stats().EncodedNodes
	if encoded != 3 {
		t.Fatalf("EncodedNodes = %d after a∧b; want 3", encoded)
	}
	if o.Lit(ab) != l || o.Lit(ab.Not()) != l.Not() {
		t.Fatal("a second Lit on an encoded root must return the same literal")
	}
	if o.Solver().NumVars() != vars || o.Solver().NumClauses() != clauses {
		t.Fatalf("second Lit grew the solver: vars %d→%d, clauses %d→%d",
			vars, o.Solver().NumVars(), clauses, o.Solver().NumClauses())
	}

	o.Lit(g.And(ab, c)) // new: c and the top AND
	if got := o.Stats().EncodedNodes; got != encoded+2 {
		t.Fatalf("EncodedNodes = %d after the super-cone; want %d", got, encoded+2)
	}
	if got := o.Solver().NumVars(); got != vars+2 {
		t.Fatalf("NumVars = %d after the super-cone; want %d", got, vars+2)
	}
}

// TestPoolWorkerIdentity checks that a pool hands each worker index a stable
// oracle and aggregates their stats.
func TestPoolWorkerIdentity(t *testing.T) {
	g := aig.New()
	a, b := g.Input(1), g.Input(2)
	ab := g.And(a, b)
	redundant := g.And(ab, b)
	p := oracle.NewPool(g)

	w0 := p.WorkerOracle(0)
	if p.WorkerOracle(0) != w0 {
		t.Fatal("worker 0 must get the same oracle every time")
	}
	w2 := p.WorkerOracle(2)
	if w2 == w0 || p.WorkerOracle(1) == w2 {
		t.Fatal("distinct worker indices must get distinct oracles")
	}

	if proven, _, _ := w0.ProveEquiv(ab, redundant, 0, nil); !proven {
		t.Fatal("worker oracle failed a provable equivalence")
	}
	if ok, _, err := p.Main().IsSatisfiable(ab, nil); !ok || err != nil {
		t.Fatalf("main oracle: %v %v", ok, err)
	}

	st := p.Stats()
	if st.Queries != 3 {
		t.Fatalf("pool queries = %d; want 3 (2 worker + 1 main)", st.Queries)
	}
	if st.Rebuilds != 4 {
		t.Fatalf("pool rebuilds = %d; want 4 (main + workers 0..2)", st.Rebuilds)
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
