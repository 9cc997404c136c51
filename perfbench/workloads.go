package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"syscall"
	"time"

	"repro/internal/cluster"
	"repro/internal/problem"
	"repro/internal/service"
)

const (
	// setupRepeats is how many times a run sets the system under test up;
	// setup_s is the median.
	setupRepeats = 15
	// windows is how many equal windows the HTTP workloads' timed span is
	// cut into (pec-hard uses one window per pass over its set). Each
	// end-to-end figure is the median over the windows, so a burst of load
	// from outside the benchmark moves one window, not the run's figure.
	windows = 5
)

// Sample is one request's outcome as the client saw it.
type Sample struct {
	Req     *Request
	Latency time.Duration
	// End is when the answer arrived, counted from the start of timing.
	End time.Duration
	// Code is the HTTP status, or the hqs exit code for pec-hard.
	Code int
	Body []byte
	Err  error
}

// Window is one slice of the timed span: it ends at End, the system under
// test spent CPUms of CPU time in it, and the hypervisor withheld the share
// Steal of the host's CPU time from it.
type Window struct {
	End   time.Duration
	CPUms float64
	Steal float64
}

const (
	// quietSteal is the highest steal share of a window that still counts
	// as quiet. Other tenants of a shared host can withhold a third of the
	// CPU for minutes; windows they disturb are measured, but a run keeps
	// going until it has windows quiet windows and reports only those.
	quietSteal = 0.05
	// maxStretch bounds how far past --seconds a run keeps measuring while
	// waiting for quiet windows.
	maxStretch = 2
)

// closeWindow records the window ending at end and reports whether the run
// has measured enough: --seconds and windows quiet windows, or maxStretch
// times --seconds. steal carries the host's steal counter between calls.
func (b *Bench) closeWindow(run *Run, end time.Duration, cpuMS float64, steal *int64) (bool, error) {
	cur, err := hostSteal()
	if err != nil {
		return false, err
	}
	var begin time.Duration
	if n := len(run.Windows); n > 0 {
		begin = run.Windows[n-1].End
	}
	capacity := (end - begin).Seconds() * ticksPerSecond * float64(runtime.NumCPU())
	run.Windows = append(run.Windows, Window{End: end, CPUms: cpuMS, Steal: ratio(float64(cur-*steal), capacity)})
	*steal = cur
	quiet := 0
	for _, w := range run.Windows {
		if w.Steal <= quietSteal {
			quiet++
		}
	}
	return end >= b.dur && quiet >= windows || end >= maxStretch*b.dur, nil
}

// Run is the untimed-verification input of one timed run.
type Run struct {
	Workload string
	Samples  []Sample
	Elapsed  time.Duration
	Windows  []Window
	Setup    []time.Duration
	PeakRSS  float64
	// Stats is the daemon's /stats (hqsd) or the coordinator's merged view
	// (hqsc), read after timing ended; nil for pec-hard.
	Stats   *service.Stats
	Cluster *cluster.Stats
	// WorkerJobs are job snapshots read back from the cluster's workers.
	WorkerJobs []service.JobInfo
	// Exhausted reports that a connection ran out of pre-generated
	// requests before the time was up.
	Exhausted bool
}

// Bench holds what every workload runner needs.
type Bench struct {
	sys      *System
	pool     *Pool
	seed     int64
	dur      time.Duration
	cacheDir string // survives runs: the seeded store's pristine copy
	example  string // the CLI set-up probe input
}

// runCLI runs one hqs process to completion and returns its exit code,
// standard output and resource usage.
func runCLI(ctx context.Context, bin string, args ...string) (code int, out []byte, cpu time.Duration, rssKB int64, err error) {
	var stdout, stderr bytes.Buffer
	cmd := exec.CommandContext(ctx, bin, args...)
	cmd.Stdout, cmd.Stderr = &stdout, &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	err = cmd.Run()
	var exit *exec.ExitError
	if err != nil && !errors.As(err, &exit) {
		return 0, nil, 0, 0, err
	}
	st := cmd.ProcessState
	ru, _ := st.SysUsage().(*syscall.Rusage)
	if ru != nil {
		cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
		rssKB = ru.Maxrss
	}
	if st.ExitCode() == 1 {
		return 1, stdout.Bytes(), cpu, rssKB, fmt.Errorf("hqs: %s", strings.TrimSpace(stderr.String()))
	}
	return st.ExitCode(), stdout.Bytes(), cpu, rssKB, nil
}

// pecHard runs hqs -cert over the frozen set, one process at a time, in
// whole passes until the time is up.
func (b *Bench) pecHard(ctx context.Context) (*Run, error) {
	run := &Run{Workload: "pec-hard"}
	hqs := filepath.Join(b.sys.bin, "hqs")
	for i := 0; i < setupRepeats; i++ {
		start := time.Now()
		code, _, _, _, err := runCLI(ctx, hqs, b.example)
		if err != nil || code != 10 {
			return nil, fmt.Errorf("set-up probe: exit %d: %v", code, err)
		}
		run.Setup = append(run.Setup, time.Since(start))
	}
	dir, err := b.sys.TempDir("inputs-")
	if err != nil {
		return nil, err
	}
	files := make([]string, len(b.pool.Insts))
	for i, in := range b.pool.Insts {
		files[i] = filepath.Join(dir, b.pool.Entries[i].ID+"."+string(in.Format))
		if err := os.WriteFile(files[i], in.Text, 0o644); err != nil {
			return nil, err
		}
	}
	n := len(b.pool.Insts)
	stream := hardStream(b.pool, b.seed, 100*n)
	var cpu time.Duration
	steal, err := hostSteal()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	for k := range stream {
		if k%n == 0 && k > 0 {
			done, err := b.closeWindow(run, time.Since(start), ms(cpu), &steal)
			if err != nil {
				return nil, err
			}
			if done {
				break
			}
			cpu = 0
		}
		if ctx.Err() != nil {
			return nil, ctx.Err()
		}
		r := &stream[k]
		t0 := time.Now()
		code, out, c, rss, err := runCLI(ctx, hqs, "-cert", files[r.Entry])
		lat := time.Since(t0)
		cpu += c
		if mb := float64(rss) / 1024; mb > run.PeakRSS {
			run.PeakRSS = mb
		}
		run.Samples = append(run.Samples, Sample{Req: r, Latency: lat, End: time.Since(start), Code: code, Body: out, Err: err})
		if k == len(stream)-1 {
			run.Exhausted = true
		}
	}
	run.Elapsed = time.Since(start)
	return run, nil
}

// httpClient returns a client holding exactly one keep-alive connection.
func httpClient() *http.Client {
	return &http.Client{Transport: &http.Transport{
		MaxConnsPerHost:     1,
		MaxIdleConnsPerHost: 1,
		DisableCompression:  true,
	}}
}

var contentTypes = map[problem.Format]string{
	problem.FormatDQDIMACS: "application/x-dqdimacs",
	problem.FormatBENCH:    "application/x-bench",
}

// post sends one request and reads the whole answer.
func post(ctx context.Context, client *http.Client, url string, r *Request) Sample {
	s := Sample{Req: r}
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, url, bytes.NewReader(r.Body))
	if err != nil {
		s.Err = err
		return s
	}
	req.Header.Set("Content-Type", contentTypes[r.Format])
	t0 := time.Now()
	resp, err := client.Do(req)
	if err == nil {
		s.Body, err = io.ReadAll(resp.Body)
		resp.Body.Close()
		s.Code = resp.StatusCode
	}
	s.Latency = time.Since(t0)
	s.Err = err
	return s
}

// closedLoop plays each connection's stream against url until the time is
// up, one outstanding request per connection, and samples the CPU time of
// the processes under test at every window boundary.
func (b *Bench) closedLoop(ctx context.Context, url string, conns [][]Request, run *Run, procs []*Proc) error {
	results := make([][]Sample, len(conns))
	exhausted := make([]bool, len(conns))
	var wg sync.WaitGroup
	prev, err := cpuMS(procs)
	if err != nil {
		return err
	}
	steal, err := hostSteal()
	if err != nil {
		return err
	}
	start := time.Now()
	// The sampler closes stop once closeWindow reports the run measured
	// enough; the connections then finish their outstanding request.
	var sampleErr error
	stop := make(chan struct{})
	go func() {
		defer close(stop)
		for k := time.Duration(1); ; k++ {
			end := k * b.dur / windows
			select {
			case <-time.After(time.Until(start.Add(end))):
			case <-ctx.Done():
				return
			}
			cur, err := cpuMS(procs)
			if err != nil {
				sampleErr = err
				return
			}
			done, err := b.closeWindow(run, end, cur-prev, &steal)
			if err != nil || done {
				sampleErr = err
				return
			}
			prev = cur
		}
	}()
	for c := range conns {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := httpClient()
			defer client.CloseIdleConnections()
			for k := range conns[c] {
				select {
				case <-stop:
					return
				default:
				}
				s := post(ctx, client, url, &conns[c][k])
				s.End = time.Since(start)
				results[c] = append(results[c], s)
			}
			exhausted[c] = true
		}(c)
	}
	wg.Wait()
	run.Elapsed = time.Since(start)
	<-stop
	if sampleErr != nil {
		return sampleErr
	}
	for c, r := range results {
		run.Samples = append(run.Samples, r...)
		run.Exhausted = run.Exhausted || exhausted[c]
	}
	run.PeakRSS, err = peakRSS(procs)
	return err
}

const solvePath = "/solve?engine=hqs&cert=1"

// serveMix runs the two-connection mix against one hqsd on a fresh copy of
// the seeded store.
func (b *Bench) serveMix(ctx context.Context) (*Run, error) {
	run := &Run{Workload: "serve-mix"}
	pristine, err := b.seededStore(ctx)
	if err != nil {
		return nil, err
	}
	storeDir, err := b.sys.TempDir("store-")
	if err != nil {
		return nil, err
	}
	if err := copyTree(pristine, storeDir); err != nil {
		return nil, err
	}
	conns := streams("serve-mix", b.pool, b.seed, 6000)
	var d *Proc
	for i := 0; i < setupRepeats; i++ {
		if d != nil {
			b.sys.Stop(d)
		}
		start := time.Now()
		d, err = b.sys.StartDaemon("hqsd", "-engine", "hqs", "-certify", "-store", storeDir, "-workers", "2")
		if err != nil {
			return nil, err
		}
		run.Setup = append(run.Setup, time.Since(start))
	}
	if err := b.closedLoop(ctx, d.URL+solvePath, conns, run, []*Proc{d}); err != nil {
		return nil, err
	}
	var st service.Stats
	if err := getJSON(ctx, http.DefaultClient, d.URL+"/stats", &st); err != nil {
		return nil, err
	}
	run.Stats = &st
	b.sys.Stop(d)
	return run, nil
}

// clusterCube runs one client against hqsc over two single-slot hqsd
// workers.
func (b *Bench) clusterCube(ctx context.Context) (*Run, error) {
	run := &Run{Workload: "cluster-cube"}
	conns := streams("cluster-cube", b.pool, b.seed, 3000)
	var procs []*Proc
	for i := 0; i < setupRepeats; i++ {
		for _, p := range procs {
			b.sys.Stop(p)
		}
		start := time.Now()
		var err error
		if procs, err = b.startCluster(); err != nil {
			return nil, err
		}
		run.Setup = append(run.Setup, time.Since(start))
	}
	coord, workers := procs[2], procs[:2]
	if err := b.closedLoop(ctx, coord.URL+solvePath, conns, run, procs); err != nil {
		return nil, err
	}
	var st cluster.Stats
	if err := getJSON(ctx, http.DefaultClient, coord.URL+"/stats", &st); err != nil {
		return nil, err
	}
	run.Cluster = &st
	run.Stats = &st.Totals
	for i, w := range workers {
		jobs, err := workerJobs(ctx, w.URL, st.Workers[i].Stats)
		if err != nil {
			return nil, err
		}
		run.WorkerJobs = append(run.WorkerJobs, jobs...)
	}
	for _, p := range procs {
		b.sys.Stop(p)
	}
	return run, nil
}

// startCluster starts two workers and the coordinator, each ready.
func (b *Bench) startCluster() ([]*Proc, error) {
	var procs []*Proc
	var urls []string
	for i := 0; i < 2; i++ {
		w, err := b.sys.StartDaemon("hqsd", "-engine", "hqs", "-certify", "-workers", "1")
		if err != nil {
			return nil, err
		}
		procs = append(procs, w)
		urls = append(urls, w.URL)
	}
	c, err := b.sys.StartDaemon("hqsc", "-engine", "hqs", "-cube-vars", "2", "-workers", strings.Join(urls, ","))
	if err != nil {
		return nil, err
	}
	return append(procs, c), nil
}

// historyLen is hqsd's default finished-job history.
const historyLen = 512

// workerJobs reads back the snapshots of a worker's most recent jobs.
func workerJobs(ctx context.Context, url string, st *service.Stats) ([]service.JobInfo, error) {
	if st == nil {
		return nil, fmt.Errorf("no /stats from %s", url)
	}
	// Job ids are j1, j2, ... in submission order; refused submissions may
	// leave gaps, which read back as 404s and are skipped.
	total := st.Submitted + st.Rejected
	var out []service.JobInfo
	for id := total; id > 0 && id > total-historyLen; id-- {
		var info service.JobInfo
		if err := getJSON(ctx, http.DefaultClient, fmt.Sprintf("%s/jobs/j%d", url, id), &info); err != nil {
			continue // evicted or never a tracked job id
		}
		out = append(out, info)
	}
	return out, nil
}

// seededStore returns the pristine seeded store, building it on first use
// in a checkout: an earlier daemon answers every store item once. Runs copy
// it, so they all start from the same store.
func (b *Bench) seededStore(ctx context.Context) (string, error) {
	items := storeItems(b.pool)
	key := fmt.Sprint(storeSeed, storeVariants, len(items))
	for _, e := range b.pool.Entries {
		key += e.SHA256
	}
	dir := filepath.Join(b.cacheDir, "seeded-store-"+digest([]byte(key))[:16])
	if _, err := os.Stat(dir); err == nil {
		return dir, nil
	}
	tmp, err := b.sys.TempDir("seed-")
	if err != nil {
		return "", err
	}
	d, err := b.sys.StartDaemon("hqsd", "-engine", "hqs", "-certify", "-store", tmp, "-workers", "2")
	if err != nil {
		return "", err
	}
	defer b.sys.Stop(d)
	reqs := make([]Request, len(items))
	for k, it := range items {
		reqs[k] = Request{Class: "store", Entry: it.entry, Format: problem.FormatDQDIMACS,
			Body: it.body(b.pool), Expected: b.pool.Entries[it.entry].Expected}
	}
	var wg sync.WaitGroup
	errs := make([]error, 2)
	for c := 0; c < 2; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := httpClient()
			defer client.CloseIdleConnections()
			for k := c; k < len(reqs); k += 2 {
				s := post(ctx, client, d.URL+solvePath, &reqs[k])
				if _, err := judgeServed(&s); err != nil {
					errs[c] = fmt.Errorf("seeding the store: %w", err)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	if err := errors.Join(errs...); err != nil {
		return "", err
	}
	b.sys.Stop(d)
	if err := os.Rename(tmp, dir); err != nil {
		return "", err
	}
	return dir, nil
}

// copyTree copies a directory of regular files.
func copyTree(src, dst string) error {
	return filepath.Walk(src, func(path string, info os.FileInfo, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(src, path)
		if err != nil {
			return err
		}
		target := filepath.Join(dst, rel)
		if info.IsDir() {
			return os.MkdirAll(target, 0o755)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(target, data, 0o644)
	})
}
