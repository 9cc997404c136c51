package pipeline

import (
	"errors"
	"fmt"
	"time"

	"repro/internal/faults"
	"repro/internal/trace"
)

// PassTotal aggregates every execution of one pass within a Runner.
type PassTotal struct {
	Runs     int
	Wall     time.Duration
	Counters Counters
}

// Runner executes passes over one shared State: it polls the budget before
// each pass, fires the pass's "pipeline.<pass>" fault point, measures the
// execution, emits one trace.Event per executed pass, stamps the state's
// DecidedBy, and aggregates per-pass totals, which are the driver's only
// record of what the passes did.
type Runner struct {
	st    *State
	sink  trace.Sink
	stage string

	totals map[string]*PassTotal
}

// NewRunner returns a runner over st emitting events to sink (nil disables
// tracing) tagged with the given stage name ("hqs" for the main loop, "qbf" for
// the linear phase).
func NewRunner(st *State, sink trace.Sink, stage string) *Runner {
	return &Runner{st: st, sink: sink, stage: stage, totals: make(map[string]*PassTotal)}
}

// Run executes one pass. It returns ErrTimeout/ErrCancelled when the budget
// stops the pipeline (before the pass, via an injected spurious Unknown, or
// reported by the pass itself), a hard error when the pass fails or a fault
// plan injects one, and nil otherwise. A trace event is emitted and the
// totals are updated for every execution that reaches the pass body, stop
// errors included; panics (aig.ErrNodeLimit in particular) propagate to the
// driver's recover.
func (r *Runner) Run(p Pass) (Result, error) {
	if err := r.st.Stop(); err != nil {
		return Result{}, err
	}
	// Fault-injection seam: every pass has a "pipeline.<pass>" point, so the
	// chaos harness can target any stage of any pipeline. A spurious Unknown
	// unwinds like a cancellation; other injected errors surface as hard
	// pass failures (and injected panics propagate to the engine's recover).
	if ferr := r.st.Budget.Faults().Fire(faultPoint(p.Name())); ferr != nil {
		if errors.Is(ferr, faults.ErrUnknown) {
			return Result{}, ErrCancelled
		}
		return Result{}, fmt.Errorf("pipeline: pass %s: %w", p.Name(), ferr)
	}

	nodesBefore := r.nodes()
	univBefore, existBefore := r.prefixSize()
	start := time.Now()
	res, err := p.Run(r.st)
	wall := time.Since(start)

	t := r.totals[p.Name()]
	if t == nil {
		t = &PassTotal{}
		r.totals[p.Name()] = t
	}
	t.Runs++
	t.Wall += wall
	t.Counters = t.Counters.Add(res.Counters)
	if r.st.DecidedBy == "" && (r.st.Decided || r.st.G != nil && r.st.Matrix.IsConst()) {
		r.st.DecidedBy = r.stage + "/" + p.Name()
	}

	if r.sink != nil {
		ev := trace.Event{
			Stage:       r.stage,
			Pass:        p.Name(),
			Wall:        wall,
			NodesBefore: nodesBefore,
			NodesAfter:  r.nodes(),
			UnivBefore:  univBefore,
			ExistBefore: existBefore,
			Changed:     res.Changed,
		}
		ev.UnivAfter, ev.ExistAfter = r.prefixSize()
		if len(res.Counters) > 0 {
			ev.Counters = make(map[string]int64, len(res.Counters))
			for k, v := range res.Counters {
				ev.Counters[k] = v
			}
		}
		if err != nil {
			ev.Err = err.Error()
		}
		r.sink.Emit(ev)
	}
	return res, err
}

// Totals returns the aggregate of every pass this runner executed, keyed by
// "stage/pass".
func (r *Runner) Totals() map[string]PassTotal {
	out := make(map[string]PassTotal, len(r.totals))
	for name, t := range r.totals {
		out[r.stage+"/"+name] = *t
	}
	return out
}

func (r *Runner) nodes() int {
	if r.st.G == nil {
		return 0
	}
	return r.st.G.NumNodes()
}

func (r *Runner) prefixSize() (int, int) {
	if r.st.Prefix == nil {
		return 0, 0
	}
	return len(r.st.Prefix.Univ), len(r.st.Prefix.Exist)
}
