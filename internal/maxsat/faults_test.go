package maxsat

import (
	"errors"
	"strings"
	"testing"

	"repro/internal/budget"
	"repro/internal/faults"
)

// TestOracleStopErrorSurfaces injects a stop at the SAT oracle's seam and
// demands that Solve pass the oracle's error on, on both the fresh-solver
// and the Backend path: a spurious Unknown must stay recognizable as
// faults.ErrUnknown (the pipeline unwinds it as a cancellation), and an
// injected error must name its point.
func TestOracleStopErrorSurfaces(t *testing.T) {
	for _, backend := range []bool{false, true} {
		for _, act := range []faults.Action{faults.ActUnknown, faults.ActError} {
			m := New(2)
			m.AddHard(lit(1), lit(2))
			m.AddSoft(lit(-1))
			m.AddSoft(lit(-2))
			m.Budget = budget.New(budget.Limits{Faults: faults.NewPlan(1, faults.Rule{Point: faults.SATSolve, Action: act})})
			if backend {
				m.Backend = NewBackend()
			}
			_, err := m.Solve()
			switch {
			case err == nil:
				t.Fatalf("backend=%v %v: Solve succeeded under a failing oracle", backend, act)
			case act == faults.ActUnknown && !errors.Is(err, faults.ErrUnknown):
				t.Fatalf("backend=%v: err %q does not wrap faults.ErrUnknown", backend, err)
			case act == faults.ActError && !strings.Contains(err.Error(), string(faults.SATSolve)):
				t.Fatalf("backend=%v: err %q does not name the injected point", backend, err)
			}
		}
	}
}
