package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"sort"
)

// Record is one run's result as --record appends it.
type Record struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Trace    int    `json:"trace"`
	Result   Result `json:"result"`
}

func appendRecord(path string, r Record) error {
	line, err := json.Marshal(r)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_APPEND|os.O_CREATE|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(line, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func readRecords(path string) ([]Record, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Record
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r Record
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s: %w", path, err)
		}
		out = append(out, r)
	}
	return out, sc.Err()
}

// values collects one metric over the records of a workload and trace mode.
func values(recs []Record, workload string, trace int, metric string) []float64 {
	var out []float64
	for _, r := range recs {
		if m, ok := r.Result.Metrics[metric]; ok && r.Workload == workload && r.Trace == trace {
			out = append(out, m.Value)
		}
	}
	return out
}

// compareMain prints, per workload, every end-to-end metric's median and
// quartiles for two result files side by side, then the per-layer median
// deltas sorted by size — where a saving landed.
func compareMain(args []string) int {
	if len(args) != 2 {
		fmt.Fprintln(os.Stderr, "usage: perfbench compare OLD.jsonl NEW.jsonl")
		return 2
	}
	old, err := readRecords(args[0])
	if err == nil {
		var cur []Record
		if cur, err = readRecords(args[1]); err == nil {
			printComparison(old, cur)
			return 0
		}
	}
	fmt.Fprintln(os.Stderr, "perfbench compare:", err)
	return 1
}

func printComparison(old, cur []Record) {
	for _, wl := range workloadNames {
		fmt.Printf("== %s\n", wl)
		fmt.Printf("%-18s %34s %34s %8s\n", "metric", "old median [q1, q3] (n)", "new median [q1, q3] (n)", "change")
		for _, d := range endToEnd {
			a, b := values(old, wl, 0, d.Name), values(cur, wl, 0, d.Name)
			if len(a) == 0 && len(b) == 0 {
				continue
			}
			fmt.Printf("%-18s %34s %34s %7.1f%%\n", d.Name, spread(a), spread(b), 100*ratio(medianFloat(b)-medianFloat(a), medianFloat(a)))
		}
		type delta struct {
			name, unit string
			a, b       float64
		}
		var ds []delta
		for _, d := range perLayer() {
			a, b := values(old, wl, 1, d.Name), values(cur, wl, 1, d.Name)
			if len(a) > 0 && len(b) > 0 {
				ds = append(ds, delta{d.Name, d.Unit, medianFloat(a), medianFloat(b)})
			}
		}
		sort.SliceStable(ds, func(i, j int) bool { return math.Abs(ds[i].b-ds[i].a) > math.Abs(ds[j].b-ds[j].a) })
		if len(ds) > 0 {
			fmt.Printf("per-layer median deltas, largest first:\n")
		}
		for _, d := range ds {
			fmt.Printf("  %-28s %12.4f -> %12.4f %-5s (%+.4f)\n", d.name, d.a, d.b, d.unit, d.b-d.a)
		}
	}
}

func spread(xs []float64) string {
	if len(xs) == 0 {
		return "-"
	}
	q := quartiles(xs)
	return fmt.Sprintf("%.4g [%.4g, %.4g] (%d)", medianFloat(xs), q[0], q[2], len(xs))
}
