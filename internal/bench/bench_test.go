package bench

import (
	"strings"
	"testing"
	"time"

	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/problem"
)

func smallGen() GenOptions {
	return GenOptions{Count: 4, Seed: 42, MaxWidth: 3}
}

func quickRun() RunOptions {
	opt := DefaultRunOptions()
	opt.Timeout = 1500 * time.Millisecond
	opt.IDQMaxInstantiations = 200_000
	return opt
}

func TestGenerateFamilies(t *testing.T) {
	for _, f := range Families {
		insts, err := Generate(f, smallGen())
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		if len(insts) != 4 {
			t.Fatalf("%s: %d instances", f, len(insts))
		}
		for _, inst := range insts {
			if err := inst.Formula.Validate(); err != nil {
				t.Fatalf("%s %s: invalid formula: %v", f, inst.Name, err)
			}
			if inst.Universals == 0 || len(inst.Formula.Exist) == 0 {
				t.Fatalf("%s %s: degenerate prefix", f, inst.Name)
			}
		}
	}
}

// TestGenerateUnknownFamily checks that a misspelt family is refused by
// name, with the known families listed, before any generator runs.
func TestGenerateUnknownFamily(t *testing.T) {
	_, err := Generate("addr", smallGen())
	if err == nil {
		t.Fatal("unknown family accepted")
	}
	for _, want := range []string{`"addr"`, "adder", "C432", "circuit"} {
		if !strings.Contains(err.Error(), want) {
			t.Errorf("error %q does not mention %s", err, want)
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	a, err := Generate(FamilyAdder, smallGen())
	if err != nil {
		t.Fatal(err)
	}
	b, err := Generate(FamilyAdder, smallGen())
	if err != nil {
		t.Fatal(err)
	}
	for i := range a {
		if a[i].Name != b[i].Name ||
			len(a[i].Formula.Matrix.Clauses) != len(b[i].Formula.Matrix.Clauses) {
			t.Fatalf("instance %d differs between generations", i)
		}
	}
}

func TestSomeInstancesTrulyDQBF(t *testing.T) {
	// A benchmark set without non-linear prefixes would not exercise DQBF
	// at all; require at least one cyclic instance per multi-box family.
	insts, err := Generate(FamilyAdder, GenOptions{Count: 10, Seed: 7, MaxWidth: 4})
	if err != nil {
		t.Fatal(err)
	}
	cyclic := 0
	for _, inst := range insts {
		if dqbf.IsCyclic(inst.Formula) {
			cyclic++
		}
	}
	if cyclic == 0 {
		t.Fatal("no instance with a non-linear prefix generated")
	}
}

func TestCampaignShape(t *testing.T) {
	// A small campaign must reproduce the paper's qualitative result: HQS
	// solves at least as many instances as iDQ, the solvers never disagree,
	// and both verdict classes occur.
	insts, err := GenerateAll(smallGen())
	if err != nil {
		t.Fatal(err)
	}
	var all []Instance
	for _, f := range Families {
		all = append(all, insts[f]...)
	}
	c := Run(all, quickRun())
	if d := c.Disagreements(); len(d) != 0 {
		t.Fatalf("solver disagreements on %v", d)
	}
	rows := TableI(c)
	total := rows[len(rows)-1]
	if total.Family != "total" {
		t.Fatal("missing total row")
	}
	if total.HQS.Solved < total.IDQ.Solved {
		t.Fatalf("HQS solved %d < iDQ %d — paper shape violated",
			total.HQS.Solved, total.IDQ.Solved)
	}
	if total.HQS.Solved == 0 {
		t.Fatal("HQS solved nothing")
	}
	if total.HQS.SatCount == 0 || total.HQS.UnsatCnt == 0 {
		t.Fatalf("need both SAT and UNSAT instances, got %d/%d",
			total.HQS.SatCount, total.HQS.UnsatCnt)
	}
	// Table renders.
	s := FormatTableI(rows)
	if !strings.Contains(s, "adder") || !strings.Contains(s, "total") {
		t.Fatalf("table missing rows:\n%s", s)
	}
	// Fig. 4 data covers every instance.
	pts := Figure4(c)
	if len(pts) != len(all) {
		t.Fatalf("scatter has %d points for %d instances", len(pts), len(all))
	}
	csv := FormatFigure4CSV(pts)
	if len(strings.Split(strings.TrimSpace(csv), "\n")) != len(all)+1 {
		t.Fatal("CSV row count wrong")
	}
	// Stats are populated.
	st := ComputeStats(c)
	if st.HQSSolvedUnder1s <= 0 {
		t.Fatalf("stats: under-1s fraction = %v", st.HQSSolvedUnder1s)
	}
}

func TestOutcomeString(t *testing.T) {
	if OutcomeSolved.String() != "solved" || OutcomeTimeout.String() != "TO" || OutcomeMemout.String() != "MO" {
		t.Fatal("Outcome.String broken")
	}
}

func TestScalingStudy(t *testing.T) {
	opt := quickRun()
	pts, err := ScalingStudy(FamilyPecXor, []int{2, 3}, 2, opt)
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("points = %v", pts)
	}
	for _, p := range pts {
		if p.Instances != 2 {
			t.Fatalf("instances = %d", p.Instances)
		}
		if p.HQSSolved < p.IDQSolved {
			t.Fatalf("width %d: HQS solved fewer than iDQ", p.Width)
		}
	}
	out := FormatScaling(FamilyPecXor, pts, opt.Timeout)
	if !strings.Contains(out, "width") {
		t.Fatal("missing header")
	}
}

func TestAblationRunner(t *testing.T) {
	insts, err := Generate(FamilyPecXor, GenOptions{Count: 3, Seed: 5, MaxWidth: 3})
	if err != nil {
		t.Fatal(err)
	}
	variants := AblationVariants()[:2] // default + greedy
	rows := RunAblation(insts, variants, time.Second, 1_000_000)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if r.Solved+r.Timeouts+r.Memouts != len(insts) {
			t.Fatalf("row %q does not account for all instances: %+v", r.Name, r)
		}
		if r.Solved == 0 {
			t.Fatalf("row %q solved nothing", r.Name)
		}
	}
	if !strings.Contains(FormatAblation(rows, len(insts)), "variant") {
		t.Fatal("missing ablation header")
	}
}

// TestAblationPeakNodesOverSolved checks that a row's peak-node sum counts
// solved instances only: under a node cap that makes one instance memout,
// the sum equals the peaks of the solves that finished, and the memout's
// own peak (wherever the cap stopped it) is left out.
func TestAblationPeakNodesOverSolved(t *testing.T) {
	insts, err := Generate(FamilyPecXor, GenOptions{Count: 3, Seed: 5, MaxWidth: 3})
	if err != nil {
		t.Fatal(err)
	}
	const nodeCap = 400
	v := AblationVariants()[0]
	want, memoutPeak := 0, 0
	for _, inst := range insts {
		opt := v.Opt
		opt.Budget = budget.New(budget.Limits{Timeout: time.Minute, Nodes: nodeCap})
		res := core.New(opt).Solve(problem.FromDQBF(inst.Formula))
		switch res.Status {
		case core.Solved:
			want += res.Stats.PeakAIGNodes
		case core.Memout:
			memoutPeak += res.Stats.PeakAIGNodes
		}
	}
	row := RunAblation(insts, []AblationVariant{v}, time.Minute, nodeCap)[0]
	if row.Memouts == 0 || row.Solved == 0 || memoutPeak == 0 {
		t.Fatalf("node cap %d should memout some instances and solve others: %+v", nodeCap, row)
	}
	if row.PeakNodesSum != want {
		t.Fatalf("PeakNodesSum = %d; want %d, the sum over solved instances (memouts peaked at %d)", row.PeakNodesSum, want, memoutPeak)
	}
}

func TestAblationVariantsComplete(t *testing.T) {
	names := map[string]bool{}
	for _, v := range AblationVariants() {
		names[v.Name] = true
	}
	for _, want := range []string{
		"default(maxsat)", "elimset=greedy", "elimset=all", "order=reverse",
		"unitpure=off", "sweep=off", "preprocess=off",
	} {
		if !names[want] {
			t.Fatalf("missing variant %q", want)
		}
	}
}

func TestExtensionFamilies(t *testing.T) {
	for _, f := range ExtensionFamilies {
		insts, err := Generate(f, GenOptions{Count: 3, Seed: 8, MaxWidth: 3})
		if err != nil {
			t.Fatalf("%s: %v", f, err)
		}
		for _, inst := range insts {
			if err := inst.Formula.Validate(); err != nil {
				t.Fatalf("%s %s: %v", f, inst.Name, err)
			}
		}
		c := Run(insts, quickRun())
		if d := c.Disagreements(); len(d) != 0 {
			t.Fatalf("%s: disagreements %v", f, d)
		}
		row := TableI(c)[0]
		if row.HQS.Solved == 0 {
			t.Fatalf("%s: HQS solved nothing", f)
		}
	}
}

// pigeonholeDQBF encodes PHP(n+1, n) as an existential-only DQBF: n+1
// pigeons into n holes, unsatisfiable, and hard for CDCL from n ≈ 10 on.
func pigeonholeDQBF(n int) *dqbf.Formula {
	f := dqbf.New()
	v := cnf.Var(0)
	p := make([][]cnf.Var, n+1)
	for i := range p {
		p[i] = make([]cnf.Var, n)
		for j := range p[i] {
			v++
			f.AddExistential(v)
			p[i][j] = v
		}
	}
	for i := 0; i <= n; i++ {
		c := make([]cnf.Lit, 0, n)
		for j := 0; j < n; j++ {
			c = append(c, cnf.PosLit(p[i][j]))
		}
		f.Matrix.AddClause(c...)
	}
	for j := 0; j < n; j++ {
		for i := 0; i <= n; i++ {
			for k := i + 1; k <= n; k++ {
				f.Matrix.AddClause(cnf.NegLit(p[i][j]), cnf.NegLit(p[k][j]))
			}
		}
	}
	return f
}

// withFinalSATGadget adds a universal x and two existentials depending on
// it, tied into the first pigeon's clause: (z1 ∨ p00)(¬z1 ∨ x ∨ p01)
// (z2 ∨ p03)(¬z2 ∨ ¬x ∨ p02). Theorem 2 eliminates z1 and z2 but leaves x
// in the support, so the pigeon variables (empty dependency sets) are not
// eliminated one by one; the linear phase gets ∃p ∀x, drops x, and decides
// the pigeonhole part with one final SAT call.
func withFinalSATGadget(f *dqbf.Formula, n int) *dqbf.Formula {
	p := func(i, j int) cnf.Var { return cnf.Var(i*n + j + 1) }
	top := cnf.Var(f.Matrix.NumVars)
	x, z1, z2 := top+1, top+2, top+3
	f.AddUniversal(x)
	f.AddExistential(z1, x)
	f.AddExistential(z2, x)
	f.Matrix.AddClause(cnf.PosLit(z1), cnf.PosLit(p(0, 0)))
	f.Matrix.AddClause(cnf.NegLit(z1), cnf.PosLit(x), cnf.PosLit(p(0, 1)))
	f.Matrix.AddClause(cnf.PosLit(z2), cnf.PosLit(p(0, 3)))
	f.Matrix.AddClause(cnf.NegLit(z2), cnf.NegLit(x), cnf.PosLit(p(0, 2)))
	return f
}

// TestRunHQSTimeout: a 100 ms per-instance timeout on PHP(12,11) must end
// the run as TO well within 2 s. The existential-only formula is decided
// by Theorem-2 eliminations, which poll the budget between steps; the
// gadget variant spends its time in one final CDCL call, which the timeout
// must interrupt.
func TestRunHQSTimeout(t *testing.T) {
	for name, f := range map[string]*dqbf.Formula{
		"existential-only": pigeonholeDQBF(11),
		"final-sat":        withFinalSATGadget(pigeonholeDQBF(11), 11),
	} {
		opt := DefaultRunOptions()
		opt.Timeout = 100 * time.Millisecond
		start := time.Now()
		r := RunHQS(Instance{Name: name, Formula: f}, opt)
		wall := time.Since(start)
		if r.Outcome != OutcomeTimeout {
			t.Errorf("%s: outcome %v (sat=%v) after %v, want TO", name, r.Outcome, r.Sat, wall)
		}
		if wall > 2*time.Second {
			t.Errorf("%s: 100ms timeout took %v to stop the solve", name, wall)
		}
	}
}
