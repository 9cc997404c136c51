package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// System tracks every process and directory a run creates, so that every
// exit path — success, failed check, error or signal — can stop and remove
// them.
type System struct {
	bin  string // directory holding the hqs, hqsd and hqsc binaries
	work string // per-run scratch directory, removed by Close

	mu    sync.Mutex
	procs []*Proc
	once  sync.Once
}

// Proc is one started binary.
type Proc struct {
	Name string
	URL  string // base URL for daemons
	cmd  *exec.Cmd
	done chan struct{}
	log  *os.File
}

func newSystem(bin, workRoot string) (*System, error) {
	if err := os.MkdirAll(workRoot, 0o755); err != nil {
		return nil, err
	}
	work, err := os.MkdirTemp(workRoot, "run-")
	if err != nil {
		return nil, err
	}
	return &System{bin: bin, work: work}, nil
}

// TempDir returns a fresh directory under the run's scratch directory.
func (s *System) TempDir(prefix string) (string, error) {
	return os.MkdirTemp(s.work, prefix)
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// Start launches a binary with its output in a log file. The child is
// killed by the kernel if this process dies without cleaning up.
func (s *System) Start(name string, args ...string) (*Proc, error) {
	log, err := os.CreateTemp(s.work, name+"-*.log")
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(s.bin+"/"+name, args...)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.Env = append(os.Environ(), "TMPDIR="+s.work)
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	p := &Proc{Name: name, cmd: cmd, done: make(chan struct{}), log: log}
	go func() {
		cmd.Wait()
		close(p.done)
	}()
	s.mu.Lock()
	s.procs = append(s.procs, p)
	s.mu.Unlock()
	return p, nil
}

// StartDaemon launches hqsd or hqsc on a free port and waits for /readyz.
func (s *System) StartDaemon(name string, args ...string) (*Proc, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	p, err := s.Start(name, append([]string{"-addr", addr}, args...)...)
	if err != nil {
		return nil, err
	}
	p.URL = "http://" + addr
	if err := p.waitReady(30 * time.Second); err != nil {
		s.Stop(p)
		return nil, err
	}
	return p, nil
}

func (p *Proc) waitReady(limit time.Duration) error {
	client := &http.Client{Timeout: time.Second}
	deadline := time.Now().Add(limit)
	for time.Now().Before(deadline) {
		select {
		case <-p.done:
			return fmt.Errorf("%s exited during start-up: %s", p.Name, p.tail())
		default:
		}
		resp, err := client.Get(p.URL + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(2 * time.Millisecond)
	}
	return fmt.Errorf("%s not ready after %v", p.Name, limit)
}

// tail returns the end of the process log, for error messages.
func (p *Proc) tail() string {
	data, _ := os.ReadFile(p.log.Name())
	if len(data) > 400 {
		data = data[len(data)-400:]
	}
	return strings.TrimSpace(string(data))
}

// Stop drains a process with SIGTERM, kills it if the drain takes longer
// than the grace period, and waits until it has exited.
func (s *System) Stop(p *Proc) {
	select {
	case <-p.done:
	default:
		p.cmd.Process.Signal(syscall.SIGTERM)
		select {
		case <-p.done:
		case <-time.After(10 * time.Second):
			p.cmd.Process.Kill()
			<-p.done
		}
	}
	p.log.Close()
	s.mu.Lock()
	defer s.mu.Unlock()
	for i, q := range s.procs {
		if q == p {
			s.procs = append(s.procs[:i], s.procs[i+1:]...)
			break
		}
	}
}

// Close stops every process still running and removes the run's scratch
// directory. It is safe to call from several paths; only the first call
// acts.
func (s *System) Close() {
	s.once.Do(func() {
		s.mu.Lock()
		procs := append([]*Proc(nil), s.procs...)
		s.mu.Unlock()
		var wg sync.WaitGroup
		for _, p := range procs {
			wg.Add(1)
			go func(p *Proc) {
				defer wg.Done()
				s.Stop(p)
			}(p)
		}
		wg.Wait()
		os.RemoveAll(s.work)
	})
}

// cpuTicks returns a process's user+system CPU time from /proc, in clock
// ticks of 1/100 s (USER_HZ on Linux).
func cpuTicks(pid int) (int64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/stat")
	if err != nil {
		return 0, err
	}
	// The command name may contain spaces; fields resume after its ')'.
	i := bytes.LastIndexByte(data, ')')
	if i < 0 {
		return 0, fmt.Errorf("malformed /proc stat for %d", pid)
	}
	f := strings.Fields(string(data[i+1:]))
	if len(f) < 13 {
		return 0, fmt.Errorf("short /proc stat for %d", pid)
	}
	utime, err1 := strconv.ParseInt(f[11], 10, 64)
	stime, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, fmt.Errorf("bad /proc stat for %d", pid)
	}
	return utime + stime, nil
}

const ticksPerSecond = 100

// hostSteal returns the time the hypervisor gave other guests instead of
// this machine, summed over its CPUs, in clock ticks: the eighth value of
// the cpu line of /proc/stat.
func hostSteal() (int64, error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	return strconv.ParseInt(f[8], 10, 64)
}

// peakRSSMB returns a process's VmHWM in MiB.
func peakRSSMB(pid int) (float64, error) {
	data, err := os.ReadFile("/proc/" + strconv.Itoa(pid) + "/status")
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(data), "\n") {
		if strings.HasPrefix(line, "VmHWM:") {
			f := strings.Fields(line)
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM for %d", pid)
}

// cpuMS returns the CPU time the daemons have used so far, in ms.
func cpuMS(procs []*Proc) (float64, error) {
	var sum float64
	for _, p := range procs {
		t, err := cpuTicks(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		sum += float64(t) * 1000 / ticksPerSecond
	}
	return sum, nil
}

// peakRSS returns the highest peak RSS among the daemons, in MiB.
func peakRSS(procs []*Proc) (float64, error) {
	var peak float64
	for _, p := range procs {
		r, err := peakRSSMB(p.cmd.Process.Pid)
		if err != nil {
			return 0, err
		}
		if r > peak {
			peak = r
		}
	}
	return peak, nil
}

// getJSON fetches a daemon endpoint into v.
func getJSON(ctx context.Context, client *http.Client, url string, v any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return err
	}
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: %s", url, resp.Status)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}
