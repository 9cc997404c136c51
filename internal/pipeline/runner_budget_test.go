package pipeline_test

import (
	"errors"
	"testing"
	"time"

	"repro/internal/aig"
	"repro/internal/budget"
	"repro/internal/pipeline"
	"repro/internal/trace"
)

// TestRunnerBudgetExpiryMidPass drives the stop contract a long pass relies
// on: when the budget is cancelled while the pass body runs, State.Stop
// reports ErrCancelled, the pass unwinds with it, and the runner still emits
// a trace event carrying the error (the pass executed, so the job history
// must show it).
func TestRunnerBudgetExpiryMidPass(t *testing.T) {
	bud := budget.New(budget.Limits{})
	rec := trace.NewRecorder(0)
	st := &pipeline.State{G: aig.New(), Matrix: aig.True, Budget: bud}
	r := pipeline.NewRunner(st, rec, "test")

	rounds := 0
	pass := pipeline.NewPass("unitpure", func(st *pipeline.State) (pipeline.Result, error) {
		// A fixpoint pass polling Stop between rounds; the budget dies after
		// the first round.
		for {
			if err := st.Stop(); err != nil {
				return pipeline.Result{Changed: rounds > 0}, err
			}
			rounds++
			bud.Cancel()
		}
	})
	_, err := r.Run(pass)
	if !errors.Is(err, pipeline.ErrCancelled) {
		t.Fatalf("mid-pass cancellation returned %v, want ErrCancelled", err)
	}
	if rounds != 1 {
		t.Fatalf("pass ran %d rounds after cancellation, want 1", rounds)
	}
	evs := rec.Events()
	if len(evs) != 1 {
		t.Fatalf("%d trace events, want 1 (the pass executed)", len(evs))
	}
	if evs[0].Err != pipeline.ErrCancelled.Error() {
		t.Fatalf("trace event error %q, want %q", evs[0].Err, pipeline.ErrCancelled)
	}
	if total := r.Totals()["test/unitpure"]; total.Runs != 1 {
		t.Fatalf("pass totals recorded %d runs, want 1", total.Runs)
	}
}

// TestRunnerBudgetDeadlineMidPass is the deadline flavor: a budget whose
// deadline passes mid-pass surfaces as ErrTimeout.
func TestRunnerBudgetDeadlineMidPass(t *testing.T) {
	bud := budget.New(budget.Limits{Timeout: 5 * time.Millisecond})
	st := &pipeline.State{G: aig.New(), Matrix: aig.True, Budget: bud}
	r := pipeline.NewRunner(st, nil, "test")

	pass := pipeline.NewPass("unitpure", func(st *pipeline.State) (pipeline.Result, error) {
		deadline := time.Now().Add(2 * time.Second)
		for time.Now().Before(deadline) {
			if err := st.Stop(); err != nil {
				return pipeline.Result{}, err
			}
			time.Sleep(time.Millisecond)
		}
		return pipeline.Result{}, nil
	})
	_, err := r.Run(pass)
	if !errors.Is(err, pipeline.ErrTimeout) {
		t.Fatalf("mid-pass deadline returned %v, want ErrTimeout", err)
	}
}

// TestRunnerStopsBeforePass pins the other half of the contract: a budget
// already dead when Run is called stops the pipeline before the pass body,
// and no trace event is emitted (the pass never executed).
func TestRunnerStopsBeforePass(t *testing.T) {
	bud := budget.New(budget.Limits{})
	bud.Cancel()
	rec := trace.NewRecorder(0)
	st := &pipeline.State{G: aig.New(), Matrix: aig.True, Budget: bud}
	r := pipeline.NewRunner(st, rec, "test")

	ran := false
	pass := pipeline.NewPass("unitpure", func(st *pipeline.State) (pipeline.Result, error) {
		ran = true
		return pipeline.Result{}, nil
	})
	_, err := r.Run(pass)
	if !errors.Is(err, pipeline.ErrCancelled) {
		t.Fatalf("pre-pass cancellation returned %v, want ErrCancelled", err)
	}
	if ran {
		t.Fatal("pass body ran under a dead budget")
	}
	if rec.Len() != 0 {
		t.Fatalf("%d trace events for a pass that never ran, want 0", rec.Len())
	}
}
