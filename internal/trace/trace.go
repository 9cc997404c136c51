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
	"encoding/binary"
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
//
// Retained events are packed into one pointer-free byte log (see
// appendEvent) rather than kept as Event values with one counter map each:
// a finished job's trace sits in the daemon's history for as long as the
// job does, and a flat log is a fraction of the size and nothing for the
// garbage collector to scan. Events decodes the log on demand.
type Recorder struct {
	mu      sync.Mutex
	max     int
	n       int    // retained events; they carry Seq 1..n
	log     []byte // the retained events, packed by appendEvent
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
	if r.max > 0 && r.n < r.max {
		r.log = appendEvent(r.log, ev)
		r.n++
		return
	}
	r.dropped++
}

// Events decodes the retained events in arrival order. Each call returns
// fresh values the caller may keep or modify.
func (r *Recorder) Events() []Event {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.n == 0 {
		return nil
	}
	events := make([]Event, r.n)
	d := decoder{b: r.log}
	for i := range events {
		events[i] = d.event()
		// Only the first max events are retained, so the i-th carries Seq i+1.
		events[i].Seq = i + 1
	}
	return events
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
	return r.n
}

// appendEvent packs ev, without its Seq, onto the Recorder's log: integers
// as varints, strings length-prefixed, Changed as one byte, and Counters as
// a count (0 for a nil map, len+1 otherwise, so an empty map survives) of
// name/value pairs.
func appendEvent(b []byte, ev Event) []byte {
	b = appendString(b, ev.Stage)
	b = appendString(b, ev.Pass)
	b = binary.AppendVarint(b, int64(ev.Wall))
	for _, v := range [...]int{ev.NodesBefore, ev.NodesAfter, ev.UnivBefore, ev.UnivAfter, ev.ExistBefore, ev.ExistAfter} {
		b = binary.AppendVarint(b, int64(v))
	}
	if ev.Changed {
		b = append(b, 1)
	} else {
		b = append(b, 0)
	}
	if ev.Counters == nil {
		b = append(b, 0)
	} else {
		b = binary.AppendUvarint(b, uint64(len(ev.Counters))+1)
		for k, v := range ev.Counters {
			b = appendString(b, k)
			b = binary.AppendVarint(b, v)
		}
	}
	return appendString(b, ev.Err)
}

func appendString(b []byte, s string) []byte {
	return append(binary.AppendUvarint(b, uint64(len(s))), s...)
}

// decoder reads back what appendEvent wrote. The log is the Recorder's own,
// so it is well-formed by construction.
type decoder struct{ b []byte }

func (d *decoder) event() Event {
	ev := Event{Stage: d.string(), Pass: d.string(), Wall: time.Duration(d.varint())}
	for _, p := range [...]*int{&ev.NodesBefore, &ev.NodesAfter, &ev.UnivBefore, &ev.UnivAfter, &ev.ExistBefore, &ev.ExistAfter} {
		*p = int(d.varint())
	}
	ev.Changed = d.b[0] == 1
	d.b = d.b[1:]
	if n := d.uvarint(); n > 0 {
		ev.Counters = make(map[string]int64, n-1)
		for i := uint64(1); i < n; i++ {
			k := d.string()
			ev.Counters[k] = d.varint()
		}
	}
	ev.Err = d.string()
	return ev
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	d.b = d.b[n:]
	return v
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	d.b = d.b[n:]
	return v
}

func (d *decoder) string() string {
	n := d.uvarint()
	s := string(d.b[:n])
	d.b = d.b[n:]
	return s
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
