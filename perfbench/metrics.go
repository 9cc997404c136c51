package main

// Metric is one reported figure.
type Metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// Result is the benchmark's last output line.
type Result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]Metric `json:"metrics"`
}

// MetricDef names a metric and its unit.
type MetricDef struct{ Name, Unit string }

// endToEnd lists the metrics of an untraced run, in report order.
var endToEnd = []MetricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"latency_p50_ms", "ms"},
	{"latency_p90_ms", "ms"},
	{"cpu_ms_per_op", "ms"},
	{"peak_rss_mb", "MiB"},
}

var (
	qbfPasses  = []string{"unitpure", "dropsupport", "blockelim", "sweep", "finalsat"}
	corePasses = []string{"preprocess", "build", "elimset", "unitpure", "dropsupport", "thm2", "thm1", "sweep", "qbf"}
	// timeLayers are the replay's timed layers besides the pipeline passes.
	timeLayers = []string{
		"core.other_ms", "cert.check_ms", "cert.encode_ms", "problem.parse_ms", "problem.hash_ms",
		"store.get_ms", "store.put_ms", "httpapi.encode_ms", "cube.split_ms", "cube.merge_ms",
	}
)

// perLayer lists the metrics of a traced run, in report order. Time and
// count metrics are per request of the replay; ratios name their base in
// ratioBases.
func perLayer() []MetricDef {
	var out []MetricDef
	for _, p := range qbfPasses {
		out = append(out, MetricDef{"qbf." + p + ".ms", "ms"}, MetricDef{"qbf." + p + ".runs", "count"})
	}
	for _, p := range corePasses {
		out = append(out, MetricDef{"core." + p + ".self_ms", "ms"}, MetricDef{"core." + p + ".runs", "count"})
	}
	for _, name := range timeLayers {
		out = append(out, MetricDef{name, "ms"})
	}
	return append(out,
		MetricDef{"core.elim_share", "ratio"},
		MetricDef{"aig.sweep.sat_calls", "count"},
		MetricDef{"aig.sweep.merge_ratio", "ratio"},
		MetricDef{"oracle.queries", "count"},
		MetricDef{"oracle.incremental_ratio", "ratio"},
		MetricDef{"oracle.rebuilds", "count"},
		MetricDef{"aig.peak_nodes", "count"},
		MetricDef{"service.cache_hit_ratio", "ratio"},
		MetricDef{"service.store_hit_ratio", "ratio"},
		MetricDef{"service.retries", "count"},
		MetricDef{"service.errors", "count"},
		MetricDef{"service.queue_wait_ms", "ms"},
		MetricDef{"cube.fan_ratio", "ratio"},
		MetricDef{"cube.short_circuit_ratio", "ratio"},
		MetricDef{"cluster.failovers", "count"},
		MetricDef{"cluster.overhead_ms", "ms"},
		MetricDef{"cold_p50_ms", "ms"},
		MetricDef{"store_p50_ms", "ms"},
		MetricDef{"hot_p50_ms", "ms"},
		MetricDef{"unattributed_ms", "ms"},
	)
}

// ratioBases documents the denominator of every ratio metric.
var ratioBases = map[string]string{
	"core.elim_share":          "wall time of the HQS main-pipeline passes (elimset+thm1+thm2 self time over it)",
	"aig.sweep.merge_ratio":    "sweep SAT calls (merged candidate pairs over them)",
	"oracle.incremental_ratio": "oracle queries (those answered on an already-loaded solver over them)",
	"service.cache_hit_ratio":  "scheduler submissions (memory-cache hits over them)",
	"service.store_hit_ratio":  "scheduler submissions (store hits over them)",
	"cube.fan_ratio":           "requests attempted (cube fans over them)",
	"cube.short_circuit_ratio": "cube fans (fans ended by an UNSAT cube over them)",
}

// latencies returns every sample's latency in ms; a failed request counts
// as the whole run, so it misses any latency limit.
func latencies(run *Run, v *Verdicts) []float64 {
	out := make([]float64, len(run.Samples))
	for i, s := range run.Samples {
		out[i] = ms(s.Latency)
		if !v.OK[i] {
			out[i] = ms(run.Elapsed)
		}
	}
	return out
}

// minQuiet is the fewest quiet windows the end-to-end figures rest on;
// with fewer, every window counts.
const minQuiet = 3

// quietWindows reports which windows the end-to-end figures use.
func quietWindows(run *Run) []bool {
	use := make([]bool, len(run.Windows))
	n := 0
	for i, w := range run.Windows {
		use[i] = w.Steal <= quietSteal
		if use[i] {
			n++
		}
	}
	if n < minQuiet {
		for i := range use {
			use[i] = true
		}
	}
	return use
}

// endToEndMetrics computes the untraced run's metrics. Throughput,
// latency percentiles and CPU per request are computed per window (a
// request belongs to the window its answer arrived in; stragglers after the
// last boundary to the last window) and reported as the median over the
// quiet windows.
func endToEndMetrics(run *Run, v *Verdicts) map[string]float64 {
	lat := latencies(run, v)
	n := len(run.Windows)
	byWindow := make([][]int, n)
	for i, s := range run.Samples {
		w := 0
		for w < n-1 && s.End > run.Windows[w].End {
			w++
		}
		byWindow[w] = append(byWindow[w], i)
	}
	use := quietWindows(run)
	var ops, p50, p90, cpu []float64
	var begin float64
	for w, win := range run.Windows {
		var xs []float64
		done := 0
		for _, i := range byWindow[w] {
			xs = append(xs, lat[i])
			if v.OK[i] {
				done++
			}
		}
		length := win.End.Seconds() - begin
		begin = win.End.Seconds()
		if len(xs) == 0 || !use[w] {
			continue
		}
		ops = append(ops, float64(done)/length)
		p50 = append(p50, percentile(xs, 0.5))
		p90 = append(p90, percentile(xs, 0.9))
		cpu = append(cpu, win.CPUms/float64(len(xs)))
	}
	return map[string]float64{
		"setup_s":        medianDuration(run.Setup).Seconds(),
		"ops_per_s":      medianFloat(ops),
		"latency_p50_ms": medianFloat(p50),
		"latency_p90_ms": medianFloat(p90),
		"cpu_ms_per_op":  medianFloat(cpu),
		"peak_rss_mb":    run.PeakRSS,
	}
}

// result assembles the output object for one metric set.
func result(v *Verdicts, defs []MetricDef, values map[string]float64) Result {
	r := Result{Correct: len(v.Wrong) == 0, Attempted: v.Attempted, Failed: v.Failed, Metrics: map[string]Metric{}}
	for _, d := range defs {
		r.Metrics[d.Name] = Metric{Value: values[d.Name], Unit: d.Unit}
	}
	return r
}
