package trace

import (
	"bufio"
	"encoding/json"
	"strings"
	"testing"
	"time"
)

func sampleEvents() []Event {
	return []Event{
		{
			Stage: "hqs", Pass: "preprocess", Wall: 3 * time.Millisecond,
			NodesBefore: 0, NodesAfter: 0,
			UnivBefore: 4, UnivAfter: 3, ExistBefore: 5, ExistAfter: 4,
			Changed: true, Counters: map[string]int64{"units": 2, "gates": 1},
		},
		{
			Stage: "hqs", Pass: "unitpure", Wall: 1 * time.Millisecond,
			NodesBefore: 40, NodesAfter: 31,
			UnivBefore: 3, UnivAfter: 3, ExistBefore: 4, ExistAfter: 3,
			Changed: true, Counters: map[string]int64{"units": 1},
		},
		{
			Stage: "qbf", Pass: "blockelim", Wall: 7 * time.Millisecond,
			NodesBefore: 31, NodesAfter: 55,
			UnivBefore: 3, UnivAfter: 2, ExistBefore: 3, ExistAfter: 3,
			Changed: true,
		},
		{
			Stage: "qbf", Pass: "blockelim", Wall: 2 * time.Millisecond,
			NodesBefore: 55, NodesAfter: 20,
			UnivBefore: 2, UnivAfter: 2, ExistBefore: 3, ExistAfter: 2,
			Changed: true, Err: "pipeline: cancelled",
		},
	}
}

func TestRecorderBoundAndSeq(t *testing.T) {
	r := NewRecorder(2)
	for _, ev := range sampleEvents() {
		r.Emit(ev)
	}
	if r.Len() != 2 {
		t.Fatalf("retained %d events, want 2", r.Len())
	}
	if r.Dropped() != 2 {
		t.Fatalf("dropped %d events, want 2", r.Dropped())
	}
	evs := r.Events()
	// Seq keeps counting across drops, and retained events carry 1, 2.
	if evs[0].Seq != 1 || evs[1].Seq != 2 {
		t.Fatalf("seq %d, %d; want 1, 2", evs[0].Seq, evs[1].Seq)
	}
	if evs[0].Pass != "preprocess" || evs[1].Pass != "unitpure" {
		t.Fatalf("wrong retention order: %s, %s", evs[0].Pass, evs[1].Pass)
	}
}

func TestRecorderNegativeRetainsNothing(t *testing.T) {
	r := NewRecorder(-1)
	for _, ev := range sampleEvents() {
		r.Emit(ev)
	}
	if r.Len() != 0 || r.Dropped() != 4 {
		t.Fatalf("len %d dropped %d, want 0 and 4", r.Len(), r.Dropped())
	}
}

func TestRecorderDefaultBound(t *testing.T) {
	r := NewRecorder(0)
	for i := 0; i < 5000; i++ {
		r.Emit(Event{Stage: "hqs", Pass: "unitpure"})
	}
	if r.Len() != 4096 || r.Dropped() != 5000-4096 {
		t.Fatalf("len %d dropped %d, want 4096 and %d", r.Len(), r.Dropped(), 5000-4096)
	}
}

// TestWriterJSONLRoundTrip streams events through the Writer and decodes
// them back; every field must survive, with Seq assigned by the sink.
func TestWriterJSONLRoundTrip(t *testing.T) {
	var sb strings.Builder
	w := NewWriter(&sb)
	in := sampleEvents()
	for _, ev := range in {
		w.Emit(ev)
	}
	var got []Event
	sc := bufio.NewScanner(strings.NewReader(sb.String()))
	for sc.Scan() {
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			t.Fatalf("bad JSONL line %q: %v", sc.Text(), err)
		}
		got = append(got, ev)
	}
	if len(got) != len(in) {
		t.Fatalf("decoded %d events, want %d", len(got), len(in))
	}
	for i, ev := range got {
		want := in[i]
		want.Seq = i + 1
		if ev.Stage != want.Stage || ev.Pass != want.Pass || ev.Wall != want.Wall ||
			ev.NodesBefore != want.NodesBefore || ev.NodesAfter != want.NodesAfter ||
			ev.UnivBefore != want.UnivBefore || ev.UnivAfter != want.UnivAfter ||
			ev.ExistBefore != want.ExistBefore || ev.ExistAfter != want.ExistAfter ||
			ev.Changed != want.Changed || ev.Err != want.Err || ev.Seq != want.Seq {
			t.Fatalf("event %d round-trip mismatch:\n got %+v\nwant %+v", i, ev, want)
		}
		for k, v := range want.Counters {
			if ev.Counters[k] != v {
				t.Fatalf("event %d counter %s: got %d want %d", i, k, ev.Counters[k], v)
			}
		}
	}
}

func TestMultiSkipsNil(t *testing.T) {
	if Multi() != nil || Multi(nil, nil) != nil {
		t.Fatal("empty Multi must collapse to nil")
	}
	r := NewRecorder(8)
	if Multi(nil, r, nil) != Sink(r) {
		t.Fatal("single-sink Multi must return the sink itself")
	}
	r2 := NewRecorder(8)
	m := Multi(r, nil, r2)
	m.Emit(Event{Stage: "hqs", Pass: "build"})
	if r.Len() != 1 || r2.Len() != 1 {
		t.Fatalf("fan-out lost events: %d, %d", r.Len(), r2.Len())
	}
}

func TestFormatTable(t *testing.T) {
	evs := sampleEvents()
	for i := range evs {
		evs[i].Seq = i + 1
	}
	got := FormatTable(evs)
	lines := strings.Split(strings.TrimRight(got, "\n"), "\n")
	// Header + rule + one row per event.
	if len(lines) != 2+len(evs) {
		t.Fatalf("table has %d lines, want %d:\n%s", len(lines), 2+len(evs), got)
	}
	for _, want := range []string{"preprocess", "blockelim", "gates=1 units=2", "40→31", "3/4→3/3"} {
		if !strings.Contains(got, want) {
			t.Fatalf("table lacks %q:\n%s", want, got)
		}
	}
	// Counters render in sorted key order.
	if strings.Contains(got, "units=2 gates=1") {
		t.Fatalf("counters not sorted:\n%s", got)
	}
}

func TestSummarizeAggregatesAndOrders(t *testing.T) {
	s := Summarize(sampleEvents())
	if len(s) != 3 {
		t.Fatalf("%d summaries, want 3", len(s))
	}
	// blockelim ran twice for 9ms total — it must lead the descending order.
	if s[0].Pass != "blockelim" || s[0].Runs != 2 || s[0].Wall != 9*time.Millisecond {
		t.Fatalf("head summary %+v, want blockelim x2 @9ms", s[0])
	}
	if s[1].Pass != "preprocess" || s[2].Pass != "unitpure" {
		t.Fatalf("order %s, %s; want preprocess, unitpure", s[1].Pass, s[2].Pass)
	}
	if s[1].Counters["units"] != 2 || s[2].Counters["units"] != 1 {
		t.Fatalf("counters not aggregated per pass: %+v %+v", s[1].Counters, s[2].Counters)
	}
	if Summarize(nil) != nil && len(Summarize(nil)) != 0 {
		t.Fatal("empty input must summarize to empty")
	}
}
