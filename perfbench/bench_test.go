package main

import (
	"encoding/json"
	"math"
	"os"
	"strings"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/cluster"
	"repro/internal/core"
	"repro/internal/problem"
	"repro/internal/service"
	"repro/internal/trace"
)

func TestPercentileAndSampleCounts(t *testing.T) {
	var xs []float64
	for i := 20; i >= 1; i-- {
		xs = append(xs, float64(i))
	}
	for _, c := range []struct {
		q           float64
		want        float64
		beyond, ofN int
	}{
		{0.5, 10, 10, 20},
		{0.9, 18, 2, 20},
		{1, 20, 0, 20},
		{0.01, 1, 19, 20},
	} {
		if got := percentile(xs, c.q); got != c.want {
			t.Errorf("p%v = %v, want %v", c.q*100, got, c.want)
		}
		if got := beyond(xs, c.q); got != c.beyond {
			t.Errorf("samples beyond p%v = %d, want %d of %d", c.q*100, got, c.beyond, c.ofN)
		}
	}
	if percentile(nil, 0.5) != 0 {
		t.Error("percentile of no samples must be 0")
	}
	if got := percentile([]float64{7}, 0.9); got != 7 {
		t.Errorf("p90 of one sample = %v", got)
	}
}

// TestQuartilesMatchPython pins the cut points to the values Python's
// statistics.quantiles(xs, n=4) prints for the same lists.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{1, 2, 3}, [3]float64{1, 2, 3}},
		{[]float64{5, 1, 4, 2, 3}, [3]float64{1.5, 3, 4.5}},
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, [3]float64{2.75, 5.5, 8.25}},
		{[]float64{3.5, 1.25, 9, 2, 2, 7, 4}, [3]float64{2, 3.5, 7}},
	} {
		got := quartiles(c.xs)
		for i := range got {
			if math.Abs(got[i]-c.want[i]) > 1e-12 {
				t.Errorf("quartiles(%v) = %v, want %v", c.xs, got, c.want)
				break
			}
		}
	}
}

func TestSelfTimesSubtractNestedQBFStage(t *testing.T) {
	ms := time.Millisecond
	events := []trace.Event{
		{Stage: "hqs", Pass: "preprocess", Wall: 2 * ms},
		{Stage: "hqs", Pass: "build", Wall: 1 * ms},
		{Stage: "qbf", Pass: "unitpure", Wall: 3 * ms},
		{Stage: "qbf", Pass: "sweep", Wall: 10 * ms},
		{Stage: "qbf", Pass: "blockelim", Wall: 4 * ms},
		{Stage: "hqs", Pass: "qbf", Wall: 20 * ms},
	}
	self := selfTimes(events)
	if got := self["core.qbf"].MS; math.Abs(got-3) > 1e-9 {
		t.Errorf("core.qbf self = %v ms, want 20-17 = 3", got)
	}
	if self["qbf.sweep"].MS != 10 || self["qbf.sweep"].Runs != 1 {
		t.Errorf("qbf.sweep = %+v", self["qbf.sweep"])
	}
	assertSelfSum(t, events, self)
}

// TestSelfTimesOfARealSolve checks, on solves of pool instances, that the
// self times of one solve add up to its main-pipeline wall time.
func TestSelfTimesOfARealSolve(t *testing.T) {
	for _, s := range []Spec{{"adder", 4, 2, 1, false}, {"comp", 4, 2, 0, false}} {
		inst, err := Generate(s)
		if err != nil {
			t.Fatal(err)
		}
		rec := trace.NewRecorder(1 << 16)
		res := core.New(hqsOptions(false, 0, rec)).Solve(problem.FromDQBF(inst.Formula))
		if res.Status != core.Solved {
			t.Fatalf("%s: %v", s.ID(), res.Status)
		}
		events := rec.Events()
		self := selfTimes(events)
		if self["core.qbf"].Runs != 1 {
			t.Fatalf("%s: expected one qbf pass, got %+v", s.ID(), self["core.qbf"])
		}
		assertSelfSum(t, events, self)
	}
}

func assertSelfSum(t *testing.T, events []trace.Event, self map[string]PassTime) {
	t.Helper()
	var sum float64
	for _, pt := range self {
		sum += pt.MS
	}
	if want := ms(stageWall(events, "hqs")); math.Abs(sum-want) > 1e-6 {
		t.Errorf("self times sum to %v ms, main pipeline wall is %v ms", sum, want)
	}
}

func loadTestPool(t *testing.T, workload string) (*Manifest, *Pool) {
	t.Helper()
	m, err := readManifest(".")
	if err != nil {
		t.Fatal(err)
	}
	pool, err := m.LoadPool(workload)
	if err != nil {
		t.Fatal(err)
	}
	return m, pool
}

// TestServeMixClassRatiosDefaultSeed pins the planned class mix of the
// default seed's serve-mix streams: per 20 requests 6 cold, 3 store and 11
// hot, except that each connection's first request is cold.
func TestServeMixClassRatiosDefaultSeed(t *testing.T) {
	m, pool := loadTestPool(t, "serve-mix")
	const n = 2000
	want := []map[string]int{
		{"cold": 601, "store": 300, "hot": 1099},
		{"cold": 600, "store": 300, "hot": 1100},
	}
	for conn := 0; conn < 2; conn++ {
		got := map[string]int{}
		bench, crossHot := 0, 0
		for _, r := range serveStream(pool, m.DefaultSeed, conn, n) {
			got[r.Class]++
			if r.Format == problem.FormatBENCH {
				bench++
			}
			if r.Class == "hot" && pool.Insts[r.Entry].Format == problem.FormatBENCH &&
				string(r.Body) == string(dqdimacs(pool.Insts[r.Entry].Formula)) {
				crossHot++
			}
		}
		for _, c := range []string{"cold", "store", "hot"} {
			if got[c] != want[conn][c] {
				t.Errorf("conn %d: %d %s requests of %d, want %d", conn, got[c], c, n, want[conn][c])
			}
		}
		if bench == 0 || crossHot == 0 {
			t.Errorf("conn %d: %d BENCH requests, %d hot repeats across formats; want some of each", conn, bench, crossHot)
		}
	}
}

// TestRatioBases checks that every ratio metric documents its base and is
// computed over it.
func TestRatioBases(t *testing.T) {
	for _, d := range perLayer() {
		_, documented := ratioBases[d.Name]
		if (d.Unit == "ratio") != documented {
			t.Errorf("%s (unit %s): base documented = %v", d.Name, d.Unit, documented)
		}
	}
	if ratio(3, 0) != 0 {
		t.Error("a ratio over an empty base must be 0")
	}
	run, v, l := fabricatedRun()
	got := layerMetrics(run, v, l)
	for name, want := range map[string]float64{
		"core.elim_share":          3.0 / 30,   // elimset+thm1+thm2 self over all pass time
		"aig.sweep.merge_ratio":    40.0 / 100, // merged over sweep SAT calls
		"oracle.incremental_ratio": 9.0 / 10,   // incremental over queries
		"service.cache_hit_ratio":  5.0 / 20,   // cache hits over submissions
		"service.store_hit_ratio":  2.0 / 20,   // store hits over submissions
		"cube.fan_ratio":           2.0 / 4,    // fans over requests attempted
		"cube.short_circuit_ratio": 1.0 / 2,    // UNSAT short circuits over fans
	} {
		if math.Abs(got[name]-want) > 1e-12 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

// TestEndToEndWindowMedians checks that throughput, percentiles and CPU
// per request are taken per window and reported as the median over the
// windows, with a failed request counted as the whole run.
func TestEndToEndWindowMedians(t *testing.T) {
	req := &Request{Class: "cold"}
	run := &Run{Elapsed: 3 * time.Second, Setup: []time.Duration{3, 1, 2}, PeakRSS: 12,
		Windows: []Window{{End: time.Second, CPUms: 20}, {End: 2 * time.Second, CPUms: 90}, {End: 3 * time.Second, CPUms: 40}}}
	v := &Verdicts{}
	add := func(end, lat time.Duration, ok bool) {
		run.Samples = append(run.Samples, Sample{Req: req, End: end, Latency: lat})
		v.OK = append(v.OK, ok)
		v.Attempted++
	}
	ms := time.Millisecond
	add(100*ms, 2*ms, true) // window 1: 2, 4 ms
	add(900*ms, 4*ms, true)
	add(1500*ms, 10*ms, true) // window 2: 10, 30, failed (3000) ms
	add(1600*ms, 30*ms, true)
	add(1700*ms, 1*ms, false)
	add(2500*ms, 6*ms, true) // window 3: 6, 8 ms, and a straggler
	add(3100*ms, 8*ms, true) // after the last boundary
	got := endToEndMetrics(run, v)
	for name, want := range map[string]float64{
		"setup_s":        2e-9,
		"ops_per_s":      2,  // windows: 2/s, 2/s, 2/s
		"latency_p50_ms": 6,  // windows: 2, 30, 6
		"latency_p90_ms": 8,  // windows: 4, 3000, 8
		"cpu_ms_per_op":  20, // windows: 10, 30, 20
		"peak_rss_mb":    12,
	} {
		if math.Abs(got[name]-want) > 1e-9 {
			t.Errorf("%s = %v, want %v", name, got[name], want)
		}
	}
}

// TestStolenWindowsDropped checks that windows in which the hypervisor
// withheld more than quietSteal of the CPU are left out once minQuiet
// quiet windows remain, and kept when fewer remain.
func TestStolenWindowsDropped(t *testing.T) {
	req := &Request{Class: "cold"}
	build := func(steals ...float64) (*Run, *Verdicts) {
		run := &Run{Elapsed: time.Duration(len(steals)) * time.Second, Setup: []time.Duration{1}}
		v := &Verdicts{}
		for i, s := range steals {
			end := time.Duration(i+1) * time.Second
			run.Windows = append(run.Windows, Window{End: end, CPUms: 1, Steal: s})
			lat := time.Millisecond
			if s > quietSteal {
				lat = 50 * time.Millisecond
			}
			run.Samples = append(run.Samples, Sample{Req: req, End: end - time.Millisecond, Latency: lat})
			v.OK = append(v.OK, true)
			v.Attempted++
		}
		return run, v
	}
	run, v := build(0.01, 0.40, 0.30, 0.02, 0.03)
	if got := endToEndMetrics(run, v)["latency_p50_ms"]; got != 1 {
		t.Errorf("p50 with two stolen windows of five = %v ms, want 1", got)
	}
	run, v = build(0.01, 0.40, 0.30, 0.50)
	if got := endToEndMetrics(run, v)["latency_p50_ms"]; got != 50 {
		t.Errorf("p50 with one quiet window of four = %v ms, want the median over all, 50", got)
	}
}

// TestLayersAddUpToLatencyP50 checks that the per-request layer times plus
// unattributed_ms equal the untraced latency_p50_ms.
func TestLayersAddUpToLatencyP50(t *testing.T) {
	run, v, l := fabricatedRun()
	got := layerMetrics(run, v, l)
	sum := got["unattributed_ms"] + got["service.queue_wait_ms"]
	for _, d := range perLayer() {
		if strings.HasSuffix(d.Name, ".self_ms") || (strings.HasPrefix(d.Name, "qbf.") && strings.HasSuffix(d.Name, ".ms")) {
			sum += got[d.Name]
		}
	}
	for _, name := range timeLayers {
		sum += got[name]
	}
	if p50 := endToEndMetrics(run, v)["latency_p50_ms"]; math.Abs(sum-p50) > 1e-9 {
		t.Errorf("layers + unattributed = %v ms, latency_p50_ms = %v", sum, p50)
	}
}

// fabricatedRun is a four-request cluster run with known counters.
func fabricatedRun() (*Run, *Verdicts, *Layers) {
	reqs := []Request{{Class: "plain"}, {Class: "widened"}, {Class: "plain"}, {Class: "widened"}}
	run := &Run{Workload: "cluster-cube", Elapsed: time.Second, Setup: []time.Duration{time.Millisecond},
		Windows: []Window{{End: time.Second, CPUms: 40}}}
	v := &Verdicts{Attempted: 4}
	for i, lat := range []time.Duration{4, 9, 6, 20} {
		run.Samples = append(run.Samples, Sample{Req: &reqs[i], Latency: lat * time.Millisecond, End: time.Duration(i+1) * 200 * time.Millisecond, Code: 200})
		v.Class = append(v.Class, reqs[i].Class)
		v.OK = append(v.OK, true)
		v.Replies = append(v.Replies, &reply{JobInfo: service.JobInfo{QueueWaitMS: 1, SolveTimeMS: 2}})
	}
	run.Stats = &service.Stats{Submitted: 20, CacheHits: 5, StoreHits: 2}
	run.WorkerJobs = []service.JobInfo{{QueueWaitMS: 1}, {QueueWaitMS: 3}}
	run.Cluster = &cluster.Stats{}
	run.Cluster.Coordinator.CubeSplits = 2
	run.Cluster.Coordinator.CubeUnsatShortCircuits = 1
	l := newLayers()
	l.Requests = 4
	l.Passes["core.elimset"] = PassTime{MS: 1, Runs: 4}
	l.Passes["core.thm1"] = PassTime{MS: 1, Runs: 4}
	l.Passes["core.thm2"] = PassTime{MS: 1, Runs: 4}
	l.Passes["core.preprocess"] = PassTime{MS: 7, Runs: 4}
	l.Passes["qbf.sweep"] = PassTime{MS: 20, Runs: 8}
	l.MS["cert.check_ms"] = 2
	l.MS["cube.split_ms"] = 0.5
	l.SatCalls, l.Merged = 100, 40
	l.Queries, l.Incremental = 10, 9
	return run, v, l
}

// TestSimulateBoxesJudgesTables checks the pec-hard certificate check: the
// tables hqs -cert prints for a SAT instance pass, a flipped entry fails.
func TestSimulateBoxesJudgesTables(t *testing.T) {
	_, pool := loadTestPool(t, "pec-hard")
	for i, in := range pool.Insts {
		if pool.Entries[i].Expected != "SAT" || in.Format == problem.FormatBENCH {
			continue
		}
		res := core.New(hqsOptions(false, 0, nil)).Solve(problem.FromDQBF(in.Formula))
		out := "SAT\n" + cert.Format(in.Formula, res.Certificate)
		tables, err := parseTables([]byte(out))
		if err != nil {
			t.Fatal(err)
		}
		if err := simulateBoxes(in, tables.funcs); err != nil {
			t.Fatalf("%s: accepted certificate judged wrong: %v", pool.Entries[i].ID, err)
		}
		y := in.Formula.Exist[0]
		for k, val := range tables.funcs[y] {
			tables.funcs[y][k] = !val
		}
		if err := simulateBoxes(in, tables.funcs); err == nil {
			t.Fatalf("%s: negated box function judged right", pool.Entries[i].ID)
		}
		return
	}
	t.Fatal("no SAT DQDIMACS instance in the pec-hard pool")
}

// TestManifestPinsInputs regenerates every pool and the default seed's
// streams and compares them with the committed digests.
func TestManifestPinsInputs(t *testing.T) {
	for _, wl := range workloadNames {
		m, pool := loadTestPool(t, wl)
		if got := streamDigest(wl, pool, m.DefaultSeed); got != m.Streams[wl] {
			t.Errorf("%s: stream digest %.12s, manifest pins %.12s", wl, got, m.Streams[wl])
		}
		for i, e := range pool.Entries {
			if e.Expected != "SAT" && e.Expected != "UNSAT" || e.Source == "" {
				t.Errorf("%s: expected verdict %q from %q", e.ID, e.Expected, e.Source)
			}
			if pool.Insts[i].Formula == nil {
				t.Errorf("%s: no formula", e.ID)
			}
		}
	}
}

// TestBenchmarkJSONMatchesCatalogue keeps BENCHMARK.json and the metrics
// the benchmark prints in step.
func TestBenchmarkJSONMatchesCatalogue(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("BENCHMARK.json not next to the benchmark directory")
	}
	var b struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	if len(b.Workloads) != len(workloadNames) {
		t.Fatalf("%d workloads in BENCHMARK.json, %d in the benchmark", len(b.Workloads), len(workloadNames))
	}
	for i, w := range b.Workloads {
		if w.Name != workloadNames[i] {
			t.Errorf("workload %d: %s vs %s", i, w.Name, workloadNames[i])
		}
	}
	check := func(kind string, got []struct{ Name, Unit string }, want []MetricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in BENCHMARK.json, %d printed", kind, len(got), len(want))
		}
		for i := range want {
			if got[i].Name != want[i].Name || got[i].Unit != want[i].Unit {
				t.Errorf("%s %d: %s %s vs %s %s", kind, i, got[i].Name, got[i].Unit, want[i].Name, want[i].Unit)
			}
		}
	}
	check("end_to_end", b.EndToEnd, endToEnd)
	check("per_layer", b.PerLayer, perLayer())
}
