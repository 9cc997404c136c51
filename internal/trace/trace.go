// Package trace defines the structured per-pass observability events of the
// solver pipeline. Every executed pipeline pass (see internal/pipeline)
// produces exactly one Event carrying its wall time, the AIG-size and
// prefix-size deltas it caused, and pass-specific counters; a Sink decides
// what happens to the stream — record it for a job history, stream it as
// JSONL, or drop it.
//
// The package is deliberately free of solver dependencies so every layer
// (cmd flags, the HTTP daemon, the bench harness) can consume traces without
// importing the cores.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"sync"
	"time"
)

// Event describes one executed pipeline pass.
type Event struct {
	// Seq numbers events within one stream, assigned by the sink (1-based).
	Seq int `json:"seq,omitempty"`
	// Stage names the phase the pass ran in ("hqs" for the DQBF main loop,
	// "qbf" for its block-eliminating linear phase).
	Stage string `json:"stage"`
	// Pass is the registered pass name (e.g. "unitpure", "thm1").
	Pass string `json:"pass"`
	// Wall is the pass execution time.
	Wall time.Duration `json:"wall_ns"`
	// NodesBefore and NodesAfter are the AIG node counts around the pass.
	NodesBefore int `json:"nodes_before"`
	NodesAfter  int `json:"nodes_after"`
	// UnivBefore/ExistBefore and UnivAfter/ExistAfter are the prefix sizes
	// around the pass.
	UnivBefore  int `json:"univ_before"`
	UnivAfter   int `json:"univ_after"`
	ExistBefore int `json:"exist_before"`
	ExistAfter  int `json:"exist_after"`
	// Changed reports whether the pass modified the state.
	Changed bool `json:"changed"`
	// Counters are pass-specific counters (elimination counts, sweep merges,
	// ...). Keys are stable per pass; values are cumulative for this one
	// execution only.
	Counters map[string]int64 `json:"counters,omitempty"`
	// Err carries the pass error, if any (budget stops included).
	Err string `json:"err,omitempty"`
}

// Sink consumes a stream of events. Implementations must be safe for
// concurrent use: portfolio arms and parallel pipelines may share one sink.
type Sink interface {
	Emit(Event)
}

// Recorder is a bounded, concurrency-safe Sink that retains events in
// arrival order. Once the bound is reached further events are counted but
// dropped, so a pathological solve cannot hold the job history hostage.
type Recorder struct {
	mu      sync.Mutex
	max     int
	seq     int
	events  []Event
	dropped int
}

// NewRecorder returns a recorder retaining at most max events (0 picks the
// default of 4096, negative retains nothing but still counts).
func NewRecorder(max int) *Recorder {
	if max == 0 {
		max = 4096
	}
	return &Recorder{max: max}
}

// Emit implements Sink.
func (r *Recorder) Emit(ev Event) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.seq++
	ev.Seq = r.seq
	if r.max > 0 && len(r.events) < r.max {
		r.events = append(r.events, ev)
		return
	}
	r.dropped++
}

// Events returns a copy of the retained events in arrival order.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]Event(nil), r.events...)
}

// Dropped returns how many events arrived after the retention bound.
func (r *Recorder) Dropped() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.dropped
}

// Len returns the number of retained events.
func (r *Recorder) Len() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return len(r.events)
}

// Writer is a Sink streaming every event as one JSON line, for
// `hqs -trace-json` and log shipping.
type Writer struct {
	mu  sync.Mutex
	w   io.Writer
	seq int
	enc *json.Encoder
}

// NewWriter returns a JSONL-streaming sink over w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, enc: json.NewEncoder(w)}
}

// Emit implements Sink. Encoding errors are dropped: tracing must never take
// a solve down.
func (t *Writer) Emit(ev Event) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	ev.Seq = t.seq
	t.enc.Encode(ev)
}

// Multi fans one stream out to several sinks (nil sinks are skipped).
func Multi(sinks ...Sink) Sink {
	var active []Sink
	for _, s := range sinks {
		if s != nil {
			active = append(active, s)
		}
	}
	switch len(active) {
	case 0:
		return nil
	case 1:
		return active[0]
	}
	return multiSink(active)
}

type multiSink []Sink

func (m multiSink) Emit(ev Event) {
	for _, s := range m {
		s.Emit(ev)
	}
}

// FormatTable renders events as a human-readable table (the `hqs -trace`
// output): one row per pass execution with wall time, node and prefix
// deltas, and the pass counters.
func FormatTable(events []Event) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%4s %-5s %-12s %12s %18s %14s  %s\n",
		"seq", "stage", "pass", "wall", "nodes", "prefix ∀/∃", "counters")
	b.WriteString(strings.Repeat("-", 92) + "\n")
	for _, ev := range events {
		fmt.Fprintf(&b, "%4d %-5s %-12s %12s %8d→%-8d %6s  %s\n",
			ev.Seq, ev.Stage, ev.Pass, ev.Wall.Round(time.Microsecond),
			ev.NodesBefore, ev.NodesAfter,
			fmt.Sprintf("%d/%d→%d/%d", ev.UnivBefore, ev.ExistBefore, ev.UnivAfter, ev.ExistAfter),
			formatCounters(ev.Counters))
	}
	return b.String()
}

func formatCounters(c map[string]int64) string {
	if len(c) == 0 {
		return ""
	}
	keys := make([]string, 0, len(c))
	for k := range c {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, 0, len(keys))
	for _, k := range keys {
		parts = append(parts, fmt.Sprintf("%s=%d", k, c[k]))
	}
	return strings.Join(parts, " ")
}

// Summary aggregates a stream by (stage, pass): total wall time, run count,
// and summed counters — the shape the bench ablation tables consume.
type Summary struct {
	Stage    string
	Pass     string
	Runs     int
	Wall     time.Duration
	Counters map[string]int64
}

// Summarize folds events into per-(stage, pass) summaries ordered by
// descending total wall time.
func Summarize(events []Event) []Summary {
	type key struct{ stage, pass string }
	agg := make(map[key]*Summary)
	var order []key
	for _, ev := range events {
		k := key{ev.Stage, ev.Pass}
		s, ok := agg[k]
		if !ok {
			s = &Summary{Stage: ev.Stage, Pass: ev.Pass, Counters: make(map[string]int64)}
			agg[k] = s
			order = append(order, k)
		}
		s.Runs++
		s.Wall += ev.Wall
		for ck, cv := range ev.Counters {
			s.Counters[ck] += cv
		}
	}
	out := make([]Summary, 0, len(order))
	for _, k := range order {
		out = append(out, *agg[k])
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].Wall > out[j].Wall })
	return out
}
