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
// bound: after the groups' inputs come wide parity pairs over
// exactInputs+1 fresh inputs each, which only SAT can prove equivalent.
func buildWideCone(g *Graph, groups, wide int) Ref {
	parts := redundantGroups(g, 1, groups)
	first := cnf.Var(1 + 3*groups)
	for i := 0; i < wide; i++ {
		vs := make([]cnf.Var, exactInputs+1)
		for j := range vs {
			vs[j] = first + cnf.Var(i*len(vs)+j)
		}
		up, down := parityPair(g, vs)
		parts = append(parts, up, down)
	}
	return g.OrN(parts...)
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

// TestSweepParallelMatchesSerial checks the determinism guarantees on a
// cone whose candidates go to all three deciders. With an unlimited
// conflict budget, a worker pool proves as many merges as the serial sweep,
// into the same function and a cone of the same size; node numbering may
// differ, since a round's candidates do not see one another's merges. For
// one worker count, two sweeps of twin graphs are bit-identical.
func TestSweepParallelMatchesSerial(t *testing.T) {
	build := func() (*Graph, Ref) {
		g := New()
		return g, buildWideCone(g, 6, 4)
	}
	gSerial, r := build()
	serialRef, serialStats := gSerial.Sweep(r, testSweepOptions(gSerial, SweepOptions{Workers: 1}))
	if serialStats.Merged == 0 || serialStats.SatCalls == 0 {
		t.Fatalf("wide cone should produce merges and SAT calls: %+v", serialStats)
	}
	for _, workers := range []int{1, 2, 4, -1} {
		var refs []Ref
		var nodes []int
		for twin := 0; twin < 2; twin++ {
			gPar, rp := build()
			if rp != r {
				t.Fatal("deterministic construction produced different refs")
			}
			parRef, parStats := gPar.Sweep(rp, testSweepOptions(gPar, SweepOptions{Workers: workers}))
			refs, nodes = append(refs, parRef), append(nodes, gPar.NumNodes())
			if parStats.Merged != serialStats.Merged {
				t.Fatalf("workers=%d: merged %d pairs, serial merged %d",
					workers, parStats.Merged, serialStats.Merged)
			}
			if got, want := gPar.ConeSize(parRef), gSerial.ConeSize(serialRef); got != want {
				t.Fatalf("workers=%d: final cone size %d, serial %d", workers, got, want)
			}
			if !gPar.Equivalent(rp, parRef) {
				t.Fatalf("workers=%d: sweep changed the function", workers)
			}
		}
		if refs[0] != refs[1] || nodes[0] != nodes[1] {
			t.Fatalf("workers=%d: twin sweeps gave %v with %d nodes and %v with %d", workers, refs[0], nodes[0], refs[1], nodes[1])
		}
		if workers == 1 && (refs[0] != serialRef || nodes[0] != gSerial.NumNodes()) {
			t.Fatalf("one worker: %v with %d nodes, serial %v with %d", refs[0], nodes[0], serialRef, gSerial.NumNodes())
		}
	}
}

// TestSweepIndependentOfOracleHistory checks that what a sweep merges does
// not depend on what its oracles answered before: with no conflict budget,
// a sweep on a fresh pool and one whose worker oracle already encodes an
// unrelated cone (with its clauses and learnts) return the same root and
// merge the same pairs, and one on two workers merges as many into a cone
// of the same size. Checking candidates in any order, on oracles of any
// history, rests on this.
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
		freshRef, fresh := g.Sweep(r, testSweepOptions(g, SweepOptions{Workers: 1}))
		if fresh.SatCalls == 0 {
			t.Fatalf("%s: the sweep made no SAT call", b.name)
		}

		gp, rp, u := build()
		pool := newTestOraclePool(gp)
		for _, other := range []Ref{False, True} {
			if _, calls, _ := pool.WorkerOracle(0).ProveEquiv(u, other, 0, nil); calls == 0 {
				t.Fatalf("%s: priming the oracle made no SAT call", b.name)
			}
		}
		primedRef, primed := gp.Sweep(rp, SweepOptions{Workers: 1, Oracles: pool})

		gw, rw, _ := build()
		parRef, par := gw.Sweep(rw, testSweepOptions(gw, SweepOptions{Workers: 2}))

		if primedRef != freshRef || primed.Merged != fresh.Merged {
			t.Fatalf("%s: primed oracle swept to %v with %d merges; fresh pool gave %v with %d", b.name, primedRef, primed.Merged, freshRef, fresh.Merged)
		}
		if gw.ConeSize(parRef) != g.ConeSize(freshRef) || par.Merged != fresh.Merged {
			t.Fatalf("%s: two workers swept to a cone of %d with %d merges; one gave %d with %d", b.name, gw.ConeSize(parRef), par.Merged, g.ConeSize(freshRef), fresh.Merged)
		}
	}
}

// TestSweepParallelPreservesSemanticsRandom cross-checks the concurrent path
// against exhaustive simulation on random AIGs (and is the main target of
// `go test -race ./internal/aig`). Every cone reads more than exactInputs
// inputs and holds a parity pair over all of them, so some of its
// candidates go to the SAT worker pool.
func TestSweepParallelPreservesSemanticsRandom(t *testing.T) {
	rng := rand.New(rand.NewSource(1789))
	vs := vars(exactInputs + 3)
	satCalls := 0
	for iter := 0; iter < 40; iter++ {
		g := New()
		up, down := parityPair(g, vs)
		r := readingAll(g, g.OrN(randomCone(g, rng, vs, 30), up, down.Not()), vs)
		opt := testSweepOptions(g, DefaultSweepOptions())
		opt.Workers = 1 + rng.Intn(4)
		swept, st := g.Sweep(r, opt)
		satCalls += st.SatCalls
		if !sameFunction(g, r, swept, vs) {
			t.Fatalf("iter %d (workers=%d): sweep changed semantics", iter, opt.Workers)
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
	opt := testSweepOptions(g, SweepOptions{Workers: 3})
	_, st := g.Sweep(r, opt)
	checkDeciders(t, "wide cone", st, opt)
	if st.Strash == 0 && st.Exact == 0 {
		t.Fatalf("no merge decided without SAT: %+v", st)
	}
	if st.Workers < 1 || st.Workers > 3 {
		t.Fatalf("workers = %d, want 1..3", st.Workers)
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
	_, fst := gf.Sweep(buildFalseCandidateCone(gf, 12), testSweepOptions(gf, SweepOptions{Workers: 1}))
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
	agg.Add(SweepStats{SatCalls: 1, SimRefuted: 2, Strash: 3, Exact: 4, ArenaBytes: st.ArenaBytes / 2, Workers: 1})
	if agg.SatCalls != st.SatCalls+fst.SatCalls+1 || agg.SimRefuted != st.SimRefuted+fst.SimRefuted+2 ||
		agg.Strash != st.Strash+fst.Strash+3 || agg.Exact != st.Exact+fst.Exact+4 ||
		agg.ArenaBytes != max(st.ArenaBytes, fst.ArenaBytes) || agg.Workers != st.Workers {
		t.Fatalf("bad aggregation: %+v", agg)
	}
}

// TestSweepWithoutOraclesFailsLoudly checks that a cone past the truth-table
// bound with no oracle pool panics in the caller instead of being contained
// by a worker, which would leave every candidate silently unmerged.
func TestSweepWithoutOraclesFailsLoudly(t *testing.T) {
	for _, workers := range []int{1, 3} {
		g := New()
		r := buildRedundantCone(g, 4)
		func() {
			defer func() {
				if recover() == nil {
					t.Fatalf("workers=%d: sweep without oracles did not panic", workers)
				}
			}()
			g.Sweep(r, SweepOptions{Workers: workers})
		}()
	}
}

// panicOraclePool hands out oracles whose every query panics.
type panicOraclePool struct{}

func (panicOraclePool) WorkerOracle(int) SweepOracle { return panicOracle{} }
func (panicOraclePool) RetireWorkers()               {}

type panicOracle struct{}

func (panicOracle) ProveEquiv(Ref, Ref, int64, *budget.Budget) (bool, int, func(cnf.Var) bool) {
	panic("query failed")
}

func (panicOracle) Footprint() (int, int64) { return 0, 0 }

// TestSweepContainsOracleFailures checks the two ways a sweep gives up on its
// candidates without failing. A query that panics is contained: that round's
// candidates, and every later one bound for SAT, stay unproven, while
// hashing and truth tables still merge theirs. A stopped budget ends the
// candidate loop before anything is merged. Either way the function is kept.
func TestSweepContainsOracleFailures(t *testing.T) {
	g := New()
	r := buildWideCone(g, 4, 2)
	tg := New()
	_, want := tg.Sweep(buildWideCone(tg, 4, 2), testSweepOptions(tg, SweepOptions{Workers: 2}))
	swept, st := g.Sweep(r, SweepOptions{Workers: 2, Oracles: panicOraclePool{}})
	if st.Panics == 0 || st.Panics > 2 || st.SatCalls != 0 {
		t.Fatalf("panicking oracles: %d panics, %d SAT calls; want 1 or 2 and 0", st.Panics, st.SatCalls)
	}
	if st.Merged != st.Strash+st.Exact || st.Merged == 0 || st.Merged >= want.Merged {
		t.Fatalf("panicking oracles: %d merges (%d hashed, %d by truth table); want only and some of the non-SAT ones, fewer than %d",
			st.Merged, st.Strash, st.Exact, want.Merged)
	}
	if !g.Equivalent(r, swept) {
		t.Fatal("panicking oracles: sweep changed the function")
	}
	stopped := budget.New(budget.Limits{})
	stopped.Cancel()
	opt := testSweepOptions(g, SweepOptions{Workers: 1, Budget: stopped})
	swept, st = g.Sweep(r, opt)
	if st.SatCalls != 0 || st.Merged != 0 || swept != r {
		t.Fatalf("stopped budget: %d SAT calls, %d merges, root %v -> %v; want 0, 0, unchanged", st.SatCalls, st.Merged, r, swept)
	}
}
