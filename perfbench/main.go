// Command perfbench is the repository's benchmark. It drives the real hqs,
// hqsd and hqsc binaries from one load-generator process and reports
// end-to-end metrics per workload; a traced run replays the same inputs
// through the packages' public functions and reports per-layer metrics.
//
// Usage, from the repository root (run.sh builds the binaries first):
//
//	bash perfbench/run.sh --workload pec-hard --seed 1 --seconds 10 --trace 0
//	bash perfbench/run.sh --workload serve-mix --seed 2 --record runs.jsonl
//	bash perfbench/run.sh compare old.jsonl new.jsonl
//	bash perfbench/run.sh select        # re-freeze the instance pools
//
// Workloads (every loop is closed: a connection sends its next request
// when the previous answer arrives):
//
//   - pec-hard: one client runs `hqs -cert FILE`, one process at a time, in
//     whole passes over a frozen set of two-box PEC instances HQS needs at
//     least 20 ms for. The solver layers do almost all the work.
//   - serve-mix: one client with two keep-alive connections sends
//     POST /solve?cert=1 to `hqsd -engine hqs -certify -store DIR -workers 2`:
//     cold requests (parse, hash, solve, certify, fsync'd store write), store
//     requests (answered from a store an earlier daemon seeded: disk read,
//     CRC, certificate re-check) and hot requests (LRU cache).
//   - cluster-cube: one client sends POST /solve?cert=1 to
//     `hqsc -engine hqs -cube-vars 2` over two `hqsd -workers 1 -certify`;
//     half the instances are forwarded whole, half fan out to four cubes
//     whose certificates are merged and checked again.
//
// Every verdict is compared with the manifest's expected verdict and every
// certificate is checked after timing ends; a wrong answer fails the run
// with a non-zero exit.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"
)

var workloadNames = []string{"pec-hard", "serve-mix", "cluster-cube"}

func main() {
	if len(os.Args) > 1 {
		switch os.Args[1] {
		case "select":
			fs := flag.NewFlagSet("select", flag.ExitOnError)
			dir := fs.String("dir", "perfbench", "benchmark directory holding the manifest")
			seed := fs.Int64("seed", 1, "default seed whose request streams the manifest pins")
			only := fs.Bool("streams", false, "keep the frozen pools and re-pin only the stream digests")
			fs.Parse(os.Args[2:])
			var err error
			if *only {
				var m *Manifest
				if m, err = readManifest(*dir); err == nil {
					err = pinStreams(*dir, m)
				}
			} else {
				err = selectPools(*dir, *seed)
			}
			if err != nil {
				fmt.Fprintln(os.Stderr, "perfbench select:", err)
				os.Exit(1)
			}
			return
		case "compare":
			os.Exit(compareMain(os.Args[2:]))
		}
	}
	os.Exit(runMain(os.Args[1:]))
}

// options are one run's settings.
type options struct {
	workload string
	seed     int64
	dur      time.Duration
	traced   bool
	bin      string
	work     string
	dir      string
}

func runMain(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	var o options
	var seconds, trace int
	fs.StringVar(&o.workload, "workload", "", "workload: pec-hard, serve-mix or cluster-cube")
	fs.Int64Var(&o.seed, "seed", 1, "input seed")
	fs.IntVar(&seconds, "seconds", 10, "measured time per run")
	fs.IntVar(&trace, "trace", 0, "1 reports per-layer metrics from a traced replay instead of end-to-end metrics")
	fs.StringVar(&o.bin, "bin", ".bench_build/bin", "directory holding the hqs, hqsd and hqsc binaries")
	fs.StringVar(&o.work, "work", ".bench_build", "directory for scratch files and the seeded-store cache")
	fs.StringVar(&o.dir, "dir", "perfbench", "benchmark directory (manifest and set-up probe input)")
	record := fs.String("record", "", "append the run's result to this JSON-lines file, for compare")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	known := false
	for _, w := range workloadNames {
		known = known || w == o.workload
	}
	if !known || seconds <= 0 || (trace != 0 && trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload %v, --seconds > 0 and --trace 0|1\n", workloadNames)
		return 2
	}
	o.dur, o.traced = time.Duration(seconds)*time.Second, trace == 1
	var err error
	if o.bin, err = filepath.Abs(o.bin); err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()
	sys, err := newSystem(o.bin, filepath.Join(o.work, "runs"))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	res, err := execute(ctx, sys, o)
	sys.Close()
	if ctx.Err() != nil {
		fmt.Fprintln(os.Stderr, "perfbench: interrupted; every started process is stopped")
		return 130
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	if *record != "" {
		if err := appendRecord(*record, Record{Workload: o.workload, Seed: o.seed, Trace: trace, Result: res}); err != nil {
			fmt.Fprintln(os.Stderr, "perfbench:", err)
			return 1
		}
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// execute performs one run: load and pin the inputs, time the workload,
// verify every answer, and compute the requested metric set.
func execute(ctx context.Context, sys *System, o options) (Result, error) {
	m, err := readManifest(o.dir)
	if err != nil {
		return Result{}, err
	}
	pool, err := m.LoadPool(o.workload)
	if err != nil {
		return Result{}, err
	}
	if o.seed == m.DefaultSeed {
		if got := streamDigest(o.workload, pool, o.seed); got != m.Streams[o.workload] {
			return Result{}, fmt.Errorf("input drift: the %s stream for seed %d has digest %.12s, the manifest pins %.12s",
				o.workload, o.seed, got, m.Streams[o.workload])
		}
	}
	b := &Bench{sys: sys, pool: pool, seed: o.seed, dur: o.dur,
		cacheDir: filepath.Join(o.work, "cache"), example: filepath.Join(o.dir, "example1.dqdimacs")}
	if err := os.MkdirAll(b.cacheDir, 0o755); err != nil {
		return Result{}, err
	}
	var run *Run
	switch o.workload {
	case "pec-hard":
		run, err = b.pecHard(ctx)
	case "serve-mix":
		run, err = b.serveMix(ctx)
	default:
		run, err = b.clusterCube(ctx)
	}
	if err != nil {
		return Result{}, err
	}
	v := verify(run, pool)
	for _, w := range v.Wrong {
		fmt.Fprintln(os.Stderr, "perfbench: WRONG:", w)
	}
	if run.Exhausted {
		fmt.Fprintln(os.Stderr, "perfbench: warning: a connection ran out of requests before the time was up")
	}
	quiet, steal := 0, 0.0
	for i, use := range quietWindows(run) {
		if use {
			quiet++
		}
		steal = max(steal, run.Windows[i].Steal)
	}
	fmt.Fprintf(os.Stderr, "perfbench: %s seed %d: %d requests in %.2f s, %d of %d windows used (worst steal %.1f%%), %d beyond the run's p90; %d failed (error_rate %.4f), %d wrong\n",
		o.workload, o.seed, v.Attempted, run.Elapsed.Seconds(), quiet, len(run.Windows), 100*steal,
		beyond(latencies(run, v), 0.9), v.Failed, ratio(float64(v.Failed), float64(v.Attempted)), len(v.Wrong))
	if !o.traced {
		return report(result(v, endToEnd, endToEndMetrics(run, v))), nil
	}
	storeDir := ""
	if o.workload == "serve-mix" {
		pristine, err := b.seededStore(ctx)
		if err != nil {
			return Result{}, err
		}
		if storeDir, err = sys.TempDir("replay-store-"); err != nil {
			return Result{}, err
		}
		if err := copyTree(pristine, storeDir); err != nil {
			return Result{}, err
		}
	}
	n := replayRequests(o.workload, pool)
	layers, err := replay(o.workload, replayOrder(streams(o.workload, pool, o.seed, n), n), storeDir)
	if err != nil {
		return Result{}, fmt.Errorf("traced replay: %w", err)
	}
	return report(result(v, perLayer(), layerMetrics(run, v, layers))), nil
}

// report prints the metrics, one per line, to standard error.
func report(r Result) Result {
	defs := append(append([]MetricDef(nil), endToEnd...), perLayer()...)
	for _, d := range defs {
		if m, ok := r.Metrics[d.Name]; ok {
			fmt.Fprintf(os.Stderr, "  %-28s %12.4f %s\n", d.Name, m.Value, m.Unit)
		}
	}
	return r
}
