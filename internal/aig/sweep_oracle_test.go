package aig

import (
	"math/rand"
	"testing"

	"repro/internal/budget"
	"repro/internal/cnf"
)

// buildRedundantCone constructs a cone containing many structurally distinct
// but functionally equivalent subgraphs (associativity and De Morgan
// variants), the raw material SAT sweeping exists to merge. The construction
// is deterministic so that two calls on fresh graphs yield identical node
// numbering.
func buildRedundantCone(g *Graph, groups int) Ref {
	return g.OrN(redundantGroups(g, 1, groups)...)
}

// redundantGroups builds the parts of buildRedundantCone: two per group,
// group i over the three inputs first+3i, first+3i+1 and first+3i+2.
func redundantGroups(g *Graph, first cnf.Var, groups int) []Ref {
	var parts []Ref
	for i := 0; i < groups; i++ {
		base := first + cnf.Var(3*i)
		a, b, c := g.Input(base), g.Input(base+1), g.Input(base+2)
		// (a∧b)∧c vs a∧(b∧c): equivalent, structurally different.
		left := g.And(g.And(a, b), c)
		right := g.And(a, g.And(b, c))
		// a⊕b built two ways.
		xor1 := g.Or(g.And(a, b.Not()), g.And(a.Not(), b))
		xor2 := g.And(g.Or(a, b), g.And(a, b).Not())
		// Keep all variants in the cone without collapsing them structurally.
		parts = append(parts,
			g.Or(left, g.And(xor1, c)),
			g.Or(right.Not(), g.And(xor2, c.Not())),
		)
	}
	return parts
}

// buildWideCone is buildRedundantCone with pairs past the truth-table
// bound (see wideGroups).
func buildWideCone(g *Graph, groups, wide int) Ref {
	return g.OrN(wideGroups(g, 1, groups, wide)...)
}

// wideGroups is redundantGroups followed by wide parity pairs, which only
// SAT can prove equivalent: after the groups' inputs, pair i reads the
// exactInputs+1 inputs from first+3·groups+(exactInputs+1)·i on.
func wideGroups(g *Graph, first cnf.Var, groups, wide int) []Ref {
	parts := redundantGroups(g, first, groups)
	first += cnf.Var(3 * groups)
	for i := 0; i < wide; i++ {
		vs := make([]cnf.Var, exactInputs+1)
		for j := range vs {
			vs[j] = first + cnf.Var(i*len(vs)+j)
		}
		up, down := parityPair(g, vs)
		parts = append(parts, up, down)
	}
	return parts
}

// buildFalseCandidateCone constructs a cone full of simulation-equal but
// inequivalent pairs: pairs f and f⊕m, where m is one minterm over all 16
// inputs, which random simulation words almost never hit. Every pair shares
// one of four minterms, so the counterexample SAT finds for the first pair
// with a minterm refutes the later ones by simulation. The construction is
// deterministic.
func buildFalseCandidateCone(g *Graph, pairs int) Ref {
	const inputs = 16
	x := make([]Ref, inputs)
	for i := range x {
		x[i] = g.Input(cnf.Var(i + 1))
	}
	minterms := make([]Ref, 4)
	for j := range minterms {
		lits := make([]Ref, inputs)
		for i := range lits {
			lits[i] = x[i].XorSign((0x9e3779b9*uint32(j+1))>>i&1 == 1)
		}
		minterms[j] = g.AndN(lits...)
	}
	var parts []Ref
	for i := 0; i < pairs; i++ {
		a, b, c := x[i%inputs], x[(3*i+1)%inputs], x[(5*i+7)%inputs]
		f := g.Xor(g.And(a, b.XorSign(i&1 == 1)), c)
		parts = append(parts, f, g.Xor(f, minterms[i%len(minterms)]))
	}
	return g.OrN(parts...)
}

// TestSweepIndependentOfOracleHistory checks that what a sweep merges does
// not depend on what its oracle answered before: with no conflict budget,
// a sweep on a fresh pool and one whose oracle already encodes an unrelated
// cone (with its clauses and learnts) return the same root and merge the
// same pairs. Sweeping is also deterministic: two sweeps of twin graphs on
// fresh pools are bit-identical, in root and node count.
func TestSweepIndependentOfOracleHistory(t *testing.T) {
	builders := []struct {
		name              string
		target, unrelated func(*Graph) Ref
	}{
		{"wide", func(g *Graph) Ref { return buildWideCone(g, 6, 3) }, func(g *Graph) Ref { return buildFalseCandidateCone(g, 12) }},
		{"false-candidate", func(g *Graph) Ref { return buildFalseCandidateCone(g, 24) }, func(g *Graph) Ref { return buildRedundantCone(g, 4) }},
	}
	for _, b := range builders {
		build := func() (*Graph, Ref, Ref) {
			g := New()
			u := b.unrelated(g)
			return g, b.target(g), u
		}
		g, r, _ := build()
		if n := len(g.Support(r)); n <= exactInputs {
			t.Fatalf("%s: cone reads %d inputs; the check needs more than %d", b.name, n, exactInputs)
		}
		freshRef, fresh := g.Sweep(r, testSweepOptions(g, SweepOptions{}))
		if fresh.SatCalls == 0 {
			t.Fatalf("%s: the sweep made no SAT call", b.name)
		}

		gp, rp, u := build()
		pool := newTestOraclePool(gp)
		for _, other := range []Ref{False, True} {
			if _, calls, _ := pool.Oracle().ProveEquiv(u, other, 0, nil); calls == 0 {
				t.Fatalf("%s: priming the oracle made no SAT call", b.name)
			}
		}
		primedRef, primed := gp.Sweep(rp, SweepOptions{Oracles: pool})

		gt, rt, _ := build()
		twinRef, _ := gt.Sweep(rt, testSweepOptions(gt, SweepOptions{}))

		if primedRef != freshRef || primed.Merged != fresh.Merged {
			t.Fatalf("%s: primed oracle swept to %v with %d merges; fresh pool gave %v with %d", b.name, primedRef, primed.Merged, freshRef, fresh.Merged)
		}
		if twinRef != freshRef || gt.NumNodes() != g.NumNodes() {
			t.Fatalf("%s: twin sweeps gave %v with %d nodes and %v with %d", b.name, freshRef, g.NumNodes(), twinRef, gt.NumNodes())
		}
	}
}

// TestSweepParallelPreservesSemanticsRandom cross-checks the SAT path
// against exhaustive simulation on random AIGs. Every cone reads more than
// exactInputs inputs and holds a parity pair over all of them, so some of
// its candidates go to the sweep's oracle.
func TestSweepParallelPreservesSemanticsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1789))
	vs := vars(exactInputs + 3)
	satCalls := 0
	for iter := 0; iter < 40; iter++ {
		g := New()
		up, down := parityPair(g, vs)
		r := readingAll(g, g.OrN(randomCone(g, rng, vs, 30), up, down.Not()), vs)
		swept, st := g.Sweep(r, testSweepOptions(g, DefaultSweepOptions()))
		satCalls += st.SatCalls
		if !sameFunction(g, r, swept, vs) {
			t.Fatalf("iter %d: sweep changed semantics", iter)
		}
	}
	if satCalls == 0 {
		t.Fatal("no SAT call over 40 sweeps")
	}
}

// TestSweepStatsCounters checks the observability counters of the sweep.
func TestSweepStatsCounters(t *testing.T) {
	g := New()
	r := buildWideCone(g, 4, 2)
	opt := testSweepOptions(g, SweepOptions{})
	_, st := g.Sweep(r, opt)
	checkDeciders(t, "wide cone", st, opt)
	if st.Strash == 0 && st.Exact == 0 {
		t.Fatalf("no merge decided without SAT: %+v", st)
	}
	if st.SatCalls == 0 {
		t.Fatal("expected SAT calls")
	}
	if st.ArenaBytes <= 0 {
		t.Fatal("expected a positive peak arena size")
	}
	if st.Candidates < st.Merged {
		t.Fatalf("candidates %d < merged %d", st.Candidates, st.Merged)
	}

	// A cone of simulation-equal but inequivalent pairs: counterexamples
	// refute most of them without a SAT call.
	gf := New()
	_, fst := gf.Sweep(buildFalseCandidateCone(gf, 12), testSweepOptions(gf, SweepOptions{}))
	if fst.SimRefuted == 0 {
		t.Fatalf("false-candidate cone: no candidate refuted by simulation (%+v)", fst)
	}
	if fst.Merged+fst.SimRefuted > fst.Candidates {
		t.Fatalf("merged %d + sim-refuted %d exceed candidates %d", fst.Merged, fst.SimRefuted, fst.Candidates)
	}
	if c := fst.Counters(); c["simrefuted"] != int64(fst.SimRefuted) || c["satcalls"] != int64(fst.SatCalls) {
		t.Fatalf("Counters() = %v; want simrefuted %d, satcalls %d", c, fst.SimRefuted, fst.SatCalls)
	}
	if c := st.Counters(); c["strash"] != int64(st.Strash) || c["exact"] != int64(st.Exact) || c["merged"] != int64(st.Merged) {
		t.Fatalf("Counters() = %v; want strash %d, exact %d, merged %d", c, st.Strash, st.Exact, st.Merged)
	}

	// Aggregation across sweeps keeps peaks and sums.
	var agg SweepStats
	agg.Add(st)
	agg.Add(fst)
	agg.Add(SweepStats{SatCalls: 1, SimRefuted: 2, Strash: 3, Exact: 4, ArenaBytes: st.ArenaBytes / 2})
	if agg.SatCalls != st.SatCalls+fst.SatCalls+1 || agg.SimRefuted != st.SimRefuted+fst.SimRefuted+2 ||
		agg.Strash != st.Strash+fst.Strash+3 || agg.Exact != st.Exact+fst.Exact+4 ||
		agg.ArenaBytes != max(st.ArenaBytes, fst.ArenaBytes) {
		t.Fatalf("bad aggregation: %+v", agg)
	}
}

// TestSweepWithoutOraclesFailsLoudly checks that a cone past the truth-table
// bound with no oracle pool panics in the caller instead of being contained
// like a failing query, which would leave every candidate silently
// unmerged.
func TestSweepWithoutOraclesFailsLoudly(t *testing.T) {
	g := New()
	r := buildRedundantCone(g, 4)
	defer func() {
		if recover() == nil {
			t.Fatal("sweep without oracles did not panic")
		}
	}()
	g.Sweep(r, SweepOptions{})
}

// panicOraclePool hands out an oracle whose every query panics.
type panicOraclePool struct{}

func (panicOraclePool) Oracle() SweepOracle { return panicOracle{} }
func (panicOraclePool) Retire()             {}

type panicOracle struct{}

func (panicOracle) ProveEquiv(Ref, Ref, int64, *budget.Budget) (bool, int, func(cnf.Var) bool) {
	panic("query failed")
}

func (panicOracle) Footprint() (int, int64) { return 0, 0 }

// TestSweepContainsOracleFailures checks the two ways a sweep gives up on its
// candidates without failing. A query that panics is contained: its
// candidate, and every later one bound for SAT, stay unproven, while
// hashing and truth tables still merge theirs. A stopped budget ends the
// candidate loop before anything is merged. Either way the function is kept.
func TestSweepContainsOracleFailures(t *testing.T) {
	g := New()
	r := buildWideCone(g, 4, 2)
	tg := New()
	_, want := tg.Sweep(buildWideCone(tg, 4, 2), testSweepOptions(tg, SweepOptions{}))
	swept, st := g.Sweep(r, SweepOptions{Oracles: panicOraclePool{}})
	if st.Panics != 1 || st.SatCalls != 0 {
		t.Fatalf("panicking oracle: %d panics, %d SAT calls; want 1 and 0", st.Panics, st.SatCalls)
	}
	if st.Merged != st.Strash+st.Exact || st.Merged == 0 || st.Merged >= want.Merged {
		t.Fatalf("panicking oracle: %d merges (%d hashed, %d by truth table); want only and some of the non-SAT ones, fewer than %d",
			st.Merged, st.Strash, st.Exact, want.Merged)
	}
	if !g.Equivalent(r, swept) {
		t.Fatal("panicking oracle: sweep changed the function")
	}
	stopped := budget.New(budget.Limits{})
	stopped.Cancel()
	opt := testSweepOptions(g, SweepOptions{Budget: stopped})
	swept, st = g.Sweep(r, opt)
	if st.SatCalls != 0 || st.Merged != 0 || swept != r {
		t.Fatalf("stopped budget: %d SAT calls, %d merges, root %v -> %v; want 0, 0, unchanged", st.SatCalls, st.Merged, r, swept)
	}
}
