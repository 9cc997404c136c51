package pipeline_test

import (
	"errors"
	"fmt"
	"testing"

	"repro/internal/aig"
	"repro/internal/budget"
	"repro/internal/faults"
	"repro/internal/pipeline"

	// Imported for its init-time pass registrations, so the test sees the
	// full pass inventory of both phases.
	_ "repro/internal/core"
)

// expectedPasses is the pass inventory of both phases; a new pass must
// be registered (and thereby fault-injectable) to show up in PassNames.
var expectedPasses = []string{
	"blockelim", "build", "dropsupport", "elimset", "finalsat",
	"preprocess", "qbf", "sweep", "thm1", "thm2", "unitpure",
}

func TestPassRegistryComplete(t *testing.T) {
	names := pipeline.PassNames()
	got := make(map[string]bool, len(names))
	for _, n := range names {
		got[n] = true
	}
	for _, want := range expectedPasses {
		if !got[want] {
			t.Errorf("pass %q not registered", want)
		}
	}
}

// TestEveryPassInjectable asserts, for every registered pass, that its
// "pipeline.<pass>" fault point is accepted by the spec parser and that an
// armed plan actually fires at it — i.e. the whole pipeline is chaos-testable
// per pass, with no silent gaps.
func TestEveryPassInjectable(t *testing.T) {
	for _, name := range pipeline.PassNames() {
		spec := fmt.Sprintf("pipeline.%s:error", name)
		plan, err := faults.ParseSpec(spec, 1)
		if err != nil {
			t.Errorf("ParseSpec(%q): %v", spec, err)
			continue
		}
		if err := plan.Fire(pipeline.FaultPoint(name)); err == nil {
			t.Errorf("pass %s: armed fault point did not fire", name)
		}
	}
}

// TestRunnerFaultMapping asserts the Runner's error contract at the fault
// seam: an injected hard error surfaces as a pass failure naming the pass,
// an injected spurious Unknown unwinds as ErrCancelled, and in both cases
// the pass body never runs. The runner fires the plan of its state's budget.
func TestRunnerFaultMapping(t *testing.T) {
	newRunner := func(plan *faults.Plan) (*pipeline.Runner, *int) {
		g := aig.New()
		st := &pipeline.State{G: g, Matrix: aig.True, Budget: budget.New(budget.Limits{Faults: plan})}
		ran := 0
		return pipeline.NewRunner(st, nil, "test"), &ran
	}
	pass := func(ran *int) pipeline.Pass {
		return pipeline.NewPass("unitpure", func(st *pipeline.State) (pipeline.Result, error) {
			*ran++
			return pipeline.Result{}, nil
		})
	}

	plan, err := faults.ParseSpec("pipeline.unitpure:error", 1)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	r, ran := newRunner(plan)
	if _, err := r.Run(pass(ran)); err == nil || errors.Is(err, pipeline.ErrCancelled) {
		t.Fatalf("injected error: got %v, want hard pass failure", err)
	}
	if *ran != 0 {
		t.Fatal("pass body ran despite injected error")
	}

	plan, err = faults.ParseSpec("pipeline.unitpure:unknown", 1)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	r, ran = newRunner(plan)
	if _, err := r.Run(pass(ran)); !errors.Is(err, pipeline.ErrCancelled) {
		t.Fatalf("injected unknown: got %v, want ErrCancelled", err)
	}
	if *ran != 0 {
		t.Fatal("pass body ran despite injected unknown")
	}
}

// TestRunnerStampsDecidedBy: the runner names the first pass execution
// after which the state is decided or the matrix constant, as
// "stage/pass", and later executions leave that name alone.
func TestRunnerStampsDecidedBy(t *testing.T) {
	g := aig.New()
	st := &pipeline.State{G: g, Matrix: g.Input(1)}
	noop := pipeline.NewPass("dropsupport", func(*pipeline.State) (pipeline.Result, error) {
		return pipeline.Result{}, nil
	})
	fold := pipeline.NewPass("thm2", func(st *pipeline.State) (pipeline.Result, error) {
		st.Matrix = st.G.Exists(st.Matrix, 1)
		return pipeline.Result{Changed: true}, nil
	})
	decide := pipeline.NewPass("finalsat", func(st *pipeline.State) (pipeline.Result, error) {
		st.Decide(true)
		return pipeline.Result{Changed: true}, nil
	})
	r := pipeline.NewRunner(st, nil, "hqs")
	if _, err := r.Run(noop); err != nil || st.DecidedBy != "" {
		t.Fatalf("after a pass leaving the matrix open: err %v, DecidedBy %q", err, st.DecidedBy)
	}
	if _, err := r.Run(fold); err != nil || st.DecidedBy != "hqs/thm2" {
		t.Fatalf("after the matrix became constant: err %v, DecidedBy %q, want hqs/thm2", err, st.DecidedBy)
	}
	if _, err := pipeline.NewRunner(st, nil, "qbf").Run(decide); err != nil || st.DecidedBy != "hqs/thm2" {
		t.Fatalf("a later decision restamped: err %v, DecidedBy %q, want hqs/thm2", err, st.DecidedBy)
	}

	st = &pipeline.State{}
	if _, err := pipeline.NewRunner(st, nil, "qbf").Run(decide); err != nil || st.DecidedBy != "qbf/finalsat" {
		t.Fatalf("after Decide on a state without a graph: err %v, DecidedBy %q, want qbf/finalsat", err, st.DecidedBy)
	}
}
