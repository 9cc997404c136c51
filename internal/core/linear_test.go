package core_test

import (
	"math/rand"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cert"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/faults"
	"repro/internal/pipeline"
	"repro/internal/problem"
	"repro/internal/trace"
)

// linearOptions is DefaultOptions without CNF preprocessing, so that small
// QBFs reach the linear phase instead of being decided up front.
func linearOptions() core.Options {
	opt := core.DefaultOptions()
	opt.Preprocess = false
	opt.DetectGates = false
	return opt
}

// withPlan returns opt under a fresh budget whose fault plan is spec.
func withPlan(t *testing.T, opt core.Options, spec string) core.Options {
	t.Helper()
	plan, err := faults.ParseSpec(spec, 1)
	if err != nil {
		t.Fatal(err)
	}
	opt.Budget = budget.New(budget.Limits{Faults: plan})
	return opt
}

// finalSATFault fails every final SAT call at its seam, so the linear phase
// falls back to eliminating the outermost existential block variable by
// variable.
const finalSATFault = "aig.finalsat:error"

// linearConfig is one configuration of the linear-phase tests; opt builds
// it afresh for every solve, since a budget serves one solve.
type linearConfig struct {
	name string
	opt  func(t *testing.T) core.Options
}

// linearConfigs are the option combinations the linear phase is checked
// under: all of it on; unit/pure and sweeping off without the final SAT
// call; and unit/pure with a sweep after every growth, again without it.
var linearConfigs = []linearConfig{
	{"default", func(*testing.T) core.Options { return linearOptions() }},
	{"plain", func(t *testing.T) core.Options {
		opt := linearOptions()
		opt.UnitPure = false
		opt.SweepThreshold = 0
		opt.QBF.SweepThreshold = 0
		return withPlan(t, opt, finalSATFault)
	}},
	{"sweep-each", func(t *testing.T) core.Options {
		opt := linearOptions()
		opt.QBF.SweepThreshold = 1
		return withPlan(t, opt, finalSATFault)
	}},
}

// fromBlocks builds the QBF with the given linear prefix over m: each
// existential depends on the universals of its own and every earlier block.
func fromBlocks(prefix []dqbf.Block, m *cnf.Formula) *dqbf.Formula {
	f := dqbf.New()
	f.Matrix = m
	var outer []cnf.Var
	for _, b := range prefix {
		for _, x := range b.Univ {
			f.AddUniversal(x)
			outer = append(outer, x)
		}
		for _, y := range b.Exist {
			f.AddExistential(y, outer...)
		}
	}
	return f
}

// solveLinear solves f as a QBF-kind problem, serially and certified, and
// returns the result, its trace, and whether the linear phase ran. A SAT
// verdict must come with a certificate cert.Check accepts.
func solveLinear(t *testing.T, f *dqbf.Formula, opt core.Options) (core.Result, []trace.Event, bool) {
	t.Helper()
	rec := trace.NewRecorder(1 << 16)
	opt.Trace = rec
	opt.Certify = true
	res := core.New(opt).Solve(&problem.Problem{Kind: problem.KindQBF, Formula: f})
	if res.Status == core.Solved && res.Sat {
		if res.CertErr != nil {
			t.Fatalf("certificate extraction: %v", res.CertErr)
		}
		if err := cert.Check(f, res.Certificate); err != nil {
			t.Fatalf("certificate rejected: %v\nformula: %v %v", err, f, f.Matrix.Clauses)
		}
	}
	events := rec.Events()
	reached := false
	for _, ev := range events {
		reached = reached || ev.Stage == "qbf"
	}
	return res, events, reached
}

// checkQBF solves f under every linear configuration and wants verdict want.
func checkQBF(t *testing.T, f *dqbf.Formula, want bool) {
	t.Helper()
	for _, c := range linearConfigs {
		res, _, _ := solveLinear(t, f, c.opt(t))
		if res.Status != core.Solved || res.Sat != want {
			t.Fatalf("%s: got %v/%v, want solved %v", c.name, res.Status, res.Sat, want)
		}
	}
}

func TestForallExistsXnor(t *testing.T) {
	// ∀x ∃y : y↔x — true.
	m := cnf.NewFormula(2)
	m.AddDimacsClause(-2, 1)
	m.AddDimacsClause(2, -1)
	checkQBF(t, fromBlocks([]dqbf.Block{{Univ: []cnf.Var{1}, Exist: []cnf.Var{2}}}, m), true)
}

func TestExistsForallXnor(t *testing.T) {
	// ∃y ∀x : y↔x — false.
	m := cnf.NewFormula(2)
	m.AddDimacsClause(-2, 1)
	m.AddDimacsClause(2, -1)
	checkQBF(t, fromBlocks([]dqbf.Block{{Exist: []cnf.Var{2}}, {Univ: []cnf.Var{1}}}, m), false)
}

func TestPurelyExistentialSAT(t *testing.T) {
	m := cnf.NewFormula(3)
	m.AddDimacsClause(1, 2)
	m.AddDimacsClause(-1, 3)
	checkQBF(t, fromBlocks([]dqbf.Block{{Exist: []cnf.Var{1, 2, 3}}}, m), true)
	m2 := cnf.NewFormula(1)
	m2.AddDimacsClause(1)
	m2.AddDimacsClause(-1)
	checkQBF(t, fromBlocks([]dqbf.Block{{Exist: []cnf.Var{1}}}, m2), false)
}

func TestPurelyUniversal(t *testing.T) {
	// ∀x1∀x2 : x1∨x2 — false.
	m := cnf.NewFormula(2)
	m.AddDimacsClause(1, 2)
	checkQBF(t, fromBlocks([]dqbf.Block{{Univ: []cnf.Var{1, 2}}}, m), false)
	// ∀x : x∨¬x — true.
	m2 := cnf.NewFormula(1)
	m2.AddDimacsClause(1, -1)
	checkQBF(t, fromBlocks([]dqbf.Block{{Univ: []cnf.Var{1}}}, m2), true)
}

func TestTwoAlternations(t *testing.T) {
	// ∀x1 ∃y1 ∀x2 ∃y2 : (y1↔x1) ∧ (y2 ↔ x1⊕x2) — true.
	m := cnf.NewFormula(4)
	// y1=2, y2=4, x1=1, x2=3.
	m.AddDimacsClause(-2, 1)
	m.AddDimacsClause(2, -1)
	// y2 ↔ x1⊕x2: (¬y2∨x1∨x2)(¬y2∨¬x1∨¬x2)(y2∨x1∨¬x2)(y2∨¬x1∨x2)
	m.AddDimacsClause(-4, 1, 3)
	m.AddDimacsClause(-4, -1, -3)
	m.AddDimacsClause(4, 1, -3)
	m.AddDimacsClause(4, -1, 3)
	checkQBF(t, fromBlocks([]dqbf.Block{
		{Univ: []cnf.Var{1}, Exist: []cnf.Var{2}},
		{Univ: []cnf.Var{3}, Exist: []cnf.Var{4}},
	}, m), true)
	// Swap: ∀x1 ∃y2 ∀x2 : y2 ↔ x1⊕x2 — false (y2 cannot see x2).
	m2 := cnf.NewFormula(4)
	m2.AddDimacsClause(-4, 1, 3)
	m2.AddDimacsClause(-4, -1, -3)
	m2.AddDimacsClause(4, 1, -3)
	m2.AddDimacsClause(4, -1, 3)
	checkQBF(t, fromBlocks([]dqbf.Block{
		{Univ: []cnf.Var{1}, Exist: []cnf.Var{4}},
		{Univ: []cnf.Var{3}},
	}, m2), false)
}

// TestQBFRandomAgainstBruteForce checks random QBFs against brute force
// under every linear configuration, with every SAT certificate checked: the
// seeded chained-dependency corpus, and as many byte-built QBFs in
// alternating blocks. Unit/pure elimination decides most of these small
// formulas in the main loop when it is on, so the linear phase must run on
// a fair share of the solves over all configurations together.
func TestQBFRandomAgainstBruteForce(t *testing.T) {
	rng := rand.New(rand.NewSource(31))
	solves, reached := 0, 0
	for _, c := range linearConfigs {
		check := func(iter int, f *dqbf.Formula, want bool) {
			res, _, linear := solveLinear(t, f, c.opt(t))
			if res.Status != core.Solved || res.Sat != want {
				t.Fatalf("%s iter %d: got %v/%v want %v\nformula: %v\nclauses: %v",
					c.name, iter, res.Status, res.Sat, want, f, f.Matrix.Clauses)
			}
			solves++
			if linear {
				reached++
			}
		}
		for iter := 0; iter < 120; iter++ {
			f := randomQBF(rng, 1+rng.Intn(3), 1+rng.Intn(3), 2+rng.Intn(8))
			want, err := dqbf.BruteForce(f)
			if err != nil {
				t.Fatal(err)
			}
			check(iter, f, want)
			data := make([]byte, 64)
			rng.Read(data)
			if g, prefix := fuzzQBF(data); g != nil {
				check(iter, g, bruteQBF(prefix, g.Matrix))
			}
		}
	}
	if reached < solves/6 {
		t.Errorf("the linear phase ran on %d of %d solves, want at least a sixth", reached, solves)
	}
}

func TestConstantMatrices(t *testing.T) {
	prefix := []dqbf.Block{{Univ: []cnf.Var{1}, Exist: []cnf.Var{2}}}
	checkQBF(t, fromBlocks(prefix, cnf.NewFormula(2)), true)
	m := cnf.NewFormula(2)
	m.AddClause()
	checkQBF(t, fromBlocks(prefix, m), false)
}

// parityChain is ∀x1..xn over a chain of 3-variable parity constraints,
// which no unit/pure step touches and which grows under elimination.
func parityChain(n int) *dqbf.Formula {
	m := cnf.NewFormula(n)
	for i := 1; i+2 <= n; i += 2 {
		m.AddDimacsClause(i, i+1, i+2)
		m.AddDimacsClause(-i, -(i + 1), i+2)
		m.AddDimacsClause(-i, i+1, -(i + 2))
		m.AddDimacsClause(i, -(i + 1), -(i + 2))
	}
	var univ []cnf.Var
	for i := 1; i <= n; i++ {
		univ = append(univ, cnf.Var(i))
	}
	return fromBlocks([]dqbf.Block{{Univ: univ}}, m)
}

// TestNodeLimitReportedAsMemout caps the AIG just above the built matrix:
// the first elimination of the linear phase hits the cap, and the solve
// ends as Memout with the hand-off pass unwound before its event.
func TestNodeLimitReportedAsMemout(t *testing.T) {
	f := parityChain(14)
	opt := linearOptions()
	opt.UnitPure = false
	opt.SweepThreshold = 0
	opt.QBF.SweepThreshold = 0
	_, events, _ := solveLinear(t, f, opt)
	built := -1
	for _, ev := range events {
		if ev.Pass == "build" {
			built = ev.NodesAfter
		}
	}
	if built < 0 {
		t.Fatal("no build event")
	}
	opt.Budget = budget.New(budget.Limits{Nodes: built + 3})
	res, events, linear := solveLinear(t, f, opt)
	if res.Status != core.Memout {
		t.Fatalf("status %v, want memout", res.Status)
	}
	if !linear {
		t.Fatal("the node cap was hit before the linear phase")
	}
	for _, ev := range events {
		if ev.Stage == "hqs" && ev.Pass == "qbf" {
			t.Fatalf("hand-off event emitted after a node-limit unwind: %+v", ev)
		}
	}
}

// TestDeadline lets the deadline pass inside the linear phase (a latency
// rule at its first elimination step outlasts it): the solve ends as
// Timeout, and the hand-off event carries the pipeline's stop error as is.
func TestDeadline(t *testing.T) {
	plan, err := faults.ParseSpec("qbf.eliminate:latency:latency=400ms", 1)
	if err != nil {
		t.Fatal(err)
	}
	opt := linearOptions()
	opt.Budget = budget.New(budget.Limits{Timeout: 300 * time.Millisecond, Faults: plan})
	res, events, _ := solveLinear(t, parityChain(12), opt)
	if res.Status != core.Timeout {
		t.Fatalf("status %v, want timeout", res.Status)
	}
	last := events[len(events)-1]
	if last.Stage != "hqs" || last.Pass != "qbf" || last.Err != pipeline.ErrTimeout.Error() {
		t.Fatalf("last event %+v, want the hand-off pass failing with %q", last, pipeline.ErrTimeout)
	}
}

// TestLinearPhaseCancelled injects a spurious Unknown at the first
// elimination step: the solve ends as Cancelled.
func TestLinearPhaseCancelled(t *testing.T) {
	res, events, _ := solveLinear(t, parityChain(12), withPlan(t, linearOptions(), "qbf.eliminate:unknown"))
	if res.Status != core.Cancelled {
		t.Fatalf("status %v, want cancelled", res.Status)
	}
	last := events[len(events)-1]
	if last.Stage != "hqs" || last.Pass != "qbf" || last.Err != pipeline.ErrCancelled.Error() {
		t.Fatalf("last event %+v, want the hand-off pass failing with %q", last, pipeline.ErrCancelled)
	}
}

// TestStatsPopulated checks that the linear phase reports its eliminations:
// ∃y ∀x ∃z(x) : (y↔x) ∧ (z∨y) leaves ∃y ∀x to block elimination once the
// main loop has removed z.
func TestStatsPopulated(t *testing.T) {
	m := cnf.NewFormula(3)
	m.AddDimacsClause(-2, 1)
	m.AddDimacsClause(2, -1)
	m.AddDimacsClause(3, 2)
	f := fromBlocks([]dqbf.Block{{Exist: []cnf.Var{2}}, {Univ: []cnf.Var{1}, Exist: []cnf.Var{3}}}, m)
	res, events, _ := solveLinear(t, f, withPlan(t, linearOptions(), finalSATFault))
	if res.Status != core.Solved || res.Sat {
		t.Fatalf("got %v/%v, want solved false", res.Status, res.Sat)
	}
	var elims int64
	for _, ev := range events {
		if ev.Stage == "qbf" {
			elims += ev.Counters["exist"] + ev.Counters["univ"] + ev.Counters["units"] + ev.Counters["pures"]
		}
	}
	if elims == 0 {
		t.Fatalf("the linear phase recorded no eliminations: %+v", events)
	}
}

// TestUnitPureOffEverywhere checks that Options.UnitPure governs both
// phases. The QBF ∃y1 ∃y2 ∃y3 ∀x1 ∀x2 ∃z1 ∃z2 below survives preprocessing
// and reaches the linear phase under DefaultOptions: with unit/pure on,
// both phases run unitpure passes, and the main loop's pass eliminates two
// variables (the prefix goes from 2∀/5∃ to 1∀/4∃); with it off, no stage
// does. Either way the final SAT call decides it, and Stats says so.
func TestUnitPureOffEverywhere(t *testing.T) {
	f, err := dqbf.ParseDQDIMACSString("p cnf 7 8\ne 1 2 3 0\na 4 5 0\ne 6 7 0\n" +
		"3 2 -6 0\n-4 -2 6 0\n-1 -4 -6 0\n3 -6 7 0\n-6 -4 2 0\n7 -2 4 0\n5 -1 -7 0\n4 7 1 0\n")
	if err != nil {
		t.Fatal(err)
	}
	want, err := dqbf.BruteForce(f)
	if err != nil {
		t.Fatal(err)
	}
	for _, unitPure := range []bool{true, false} {
		opt := core.DefaultOptions()
		opt.UnitPure = unitPure
		res, events, linear := solveLinear(t, f, opt)
		if res.Status != core.Solved || res.Sat != want || !linear {
			t.Fatalf("UnitPure %v: got %v/%v (linear phase ran: %v), want %v from the linear phase",
				unitPure, res.Status, res.Sat, linear, want)
		}
		ran := map[string]bool{}
		for _, ev := range events {
			if ev.Pass == "unitpure" {
				ran[ev.Stage] = true
			}
		}
		if unitPure && !(ran["hqs"] && ran["qbf"]) || !unitPure && len(ran) > 0 {
			t.Errorf("UnitPure %v: unitpure passes ran in stages %v", unitPure, ran)
		}
		if up := res.Stats.Pass("hqs", "unitpure"); unitPure && up.Counters["units"]+up.Counters["pures"] != 2 {
			t.Errorf("UnitPure %v: hqs/unitpure counters %v, want 2 eliminations", unitPure, up.Counters)
		}
		if res.Stats.DecidedBy != "qbf/finalsat" {
			t.Errorf("UnitPure %v: decided by %q, want qbf/finalsat", unitPure, res.Stats.DecidedBy)
		}
	}
}
