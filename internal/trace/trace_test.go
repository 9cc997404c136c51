package trace

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"sync"
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

// TestRecorderRoundTrip checks the packed log: every retained event decodes
// to exactly what was emitted, with Seq assigned, whatever its integers,
// strings and counters hold.
func TestRecorderRoundTrip(t *testing.T) {
	cases := []struct {
		name string
		ev   Event
	}{
		{"zero", Event{}},
		{"negative ints", Event{Stage: "hqs", Pass: "thm1", Wall: -5, NodesBefore: -1, NodesAfter: -1 << 40,
			UnivBefore: -3, UnivAfter: -4, ExistBefore: -5, ExistAfter: -6}},
		{"large ints", Event{Stage: "qbf", Pass: "sweep", Wall: math.MaxInt64, NodesBefore: math.MaxInt,
			NodesAfter: math.MinInt, UnivBefore: 1 << 62, Changed: true,
			Counters: map[string]int64{"max": math.MaxInt64, "min": math.MinInt64}}},
		{"empty counters", Event{Stage: "hqs", Pass: "build", Counters: map[string]int64{}}},
		{"counters", Event{Stage: "hqs", Pass: "preprocess", Wall: 3 * time.Millisecond, Changed: true,
			Counters: map[string]int64{"units": 2, "gates": 1, "": 0, "zero": 0}}},
		{"err", Event{Stage: "hqs", Pass: "unitpure", Err: "pipeline: cancelled"}},
		{"non-ASCII", Event{Stage: "∀∃", Pass: "élim", Err: "budget ⏱ \x00\xff",
			Counters: map[string]int64{"Σ": -7, "日本": 1 << 33}}},
	}
	r := NewRecorder(len(cases))
	want := make([]Event, len(cases))
	for i, c := range cases {
		r.Emit(c.ev)
		want[i] = c.ev
		want[i].Seq = i + 1
	}
	got := r.Events()
	if len(got) != len(want) {
		t.Fatalf("decoded %d events, want %d", len(got), len(want))
	}
	for i, c := range cases {
		if !reflect.DeepEqual(got[i], want[i]) {
			t.Errorf("%s: got %+v\nwant %+v", c.name, got[i], want[i])
		}
	}
	// Each call decodes fresh values: changing one result leaves the log as is.
	got[len(got)-1].Counters["Σ"] = 0
	if again := r.Events(); !reflect.DeepEqual(again, want) {
		t.Fatal("Events shares state between calls")
	}
	if NewRecorder(4).Events() != nil {
		t.Fatal("an empty recorder must return nil events")
	}
}

// TestRecorderConcurrentEmit emits from several goroutines at once (run it
// under -race): every event is retained or counted as dropped exactly once,
// the retained ones carry Seq 1..max, and each decodes intact.
func TestRecorderConcurrentEmit(t *testing.T) {
	const goroutines, each, max = 8, 200, 1000
	r := NewRecorder(max)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < each; i++ {
				r.Emit(Event{Stage: "hqs", Pass: "unitpure", NodesBefore: g, NodesAfter: i,
					Counters: map[string]int64{"g": int64(g), "i": int64(i)}})
			}
		}(g)
	}
	wg.Wait()
	evs := r.Events()
	if len(evs) != max || r.Len() != max || r.Dropped() != goroutines*each-max {
		t.Fatalf("retained %d (Len %d), dropped %d; want %d and %d", len(evs), r.Len(), r.Dropped(), max, goroutines*each-max)
	}
	for i, ev := range evs {
		if ev.Seq != i+1 || ev.Counters["g"] != int64(ev.NodesBefore) || ev.Counters["i"] != int64(ev.NodesAfter) {
			t.Fatalf("event %d decoded inconsistently: %+v", i, ev)
		}
	}
}

// FuzzRecorder builds events from the fuzz bytes, emits them, and requires
// Events to return them unchanged, with Seq assigned.
func FuzzRecorder(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte("hqs\x00unitpure\x00\x01\x02\x03\xff\xfe"))
	f.Add([]byte("qbf\x00∀∃\x00\x80\x00\x00\x00\x00\x00\x00\x00\x7f\x05units\x00err"))
	f.Fuzz(func(t *testing.T, data []byte) {
		r := NewRecorder(16)
		var want []Event
		for len(data) > 0 && len(want) < 16 {
			var ev Event
			ev, data = fuzzEvent(data)
			r.Emit(ev)
			ev.Seq = len(want) + 1
			want = append(want, ev)
		}
		if got := r.Events(); !reflect.DeepEqual(got, want) {
			t.Fatalf("round trip:\n got %+v\nwant %+v", got, want)
		}
	})
}

// fuzzEvent consumes a prefix of data as one event: NUL-terminated strings,
// 8-byte integers, and a counter count taken modulo 5 (with 4 standing for a
// nil map). Missing bytes read as zero.
func fuzzEvent(data []byte) (Event, []byte) {
	str := func() string {
		i := bytes.IndexByte(data, 0)
		if i < 0 {
			i = len(data)
		}
		s := string(data[:i])
		data = data[min(i+1, len(data)):]
		return s
	}
	num := func() int64 {
		var b [8]byte
		n := copy(b[:], data)
		data = data[n:]
		return int64(binary.LittleEndian.Uint64(b[:]))
	}
	ev := Event{Stage: str(), Pass: str(), Wall: time.Duration(num()),
		NodesBefore: int(num()), NodesAfter: int(num()), UnivBefore: int(num()),
		UnivAfter: int(num()), ExistBefore: int(num()), ExistAfter: int(num())}
	ev.Changed = num()&1 == 1
	if n := num() % 5; n != 4 && n != -4 {
		ev.Counters = map[string]int64{}
		for i := int64(0); i < n || i < -n; i++ {
			k := str()
			ev.Counters[k] = num()
		}
	}
	ev.Err = str()
	return ev, data
}
