//go:build smoke

package main

// The smoke tests drive the real hqsd binary end to end: build, start,
// health-check, solve the repository's example instance over HTTP in
// portfolio mode, then shut down gracefully with SIGTERM; survive a SIGKILL
// with -store; and carry a -faults plan to the scheduler and the engines.
// Run them via `make serve-smoke` (they are tag-gated so ordinary
// `go test ./...` stays hermetic and fast).

import (
	"context"
	"encoding/json"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/service"
)

// buildHQSD builds the hqsd binary into a temporary directory.
func buildHQSD(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hqsd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// startHQSD starts bin with args on a free local port and waits until it is
// healthy. It returns the process and the base URL; the caller stops it.
func startHQSD(t *testing.T, bin string, args ...string) (*exec.Cmd, string) {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatalf("reserve port: %v", err)
	}
	addr := ln.Addr().String()
	ln.Close()
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("start hqsd: %v", err)
	}
	base := "http://" + addr
	deadline := time.Now().Add(10 * time.Second)
	for {
		resp, err := http.Get(base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return cmd, base
			}
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("hqsd never became healthy: %v", err)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// postSolve POSTs body to base/solve?query and decodes the job snapshot.
func postSolve(t *testing.T, base, query string, body []byte) service.JobInfo {
	t.Helper()
	resp, err := http.Post(base+"/solve?"+query, "text/plain", strings.NewReader(string(body)))
	if err != nil {
		t.Fatalf("POST /solve: %v", err)
	}
	defer resp.Body.Close()
	var info service.JobInfo
	if err := json.NewDecoder(resp.Body).Decode(&info); err != nil {
		t.Fatalf("decode: %v", err)
	}
	if resp.StatusCode != http.StatusOK || info.Outcome == nil {
		t.Fatalf("solve: status %d, info %+v", resp.StatusCode, info)
	}
	return info
}

// getStats reads the daemon's /stats counters.
func getStats(t *testing.T, base string) service.Stats {
	t.Helper()
	resp, err := http.Get(base + "/stats")
	if err != nil {
		t.Fatalf("GET /stats: %v", err)
	}
	defer resp.Body.Close()
	var stats service.Stats
	if err := json.NewDecoder(resp.Body).Decode(&stats); err != nil {
		t.Fatalf("decode stats: %v", err)
	}
	return stats
}

func TestServeSmoke(t *testing.T) {
	cmd, base := startHQSD(t, buildHQSD(t), "-workers", "2", "-drain-timeout", "10s")
	defer cmd.Process.Kill()

	// Readiness must agree with liveness on an idle instance.
	if resp, err := http.Get(base + "/readyz"); err != nil {
		t.Fatalf("GET /readyz: %v", err)
	} else {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("/readyz = %d on an idle instance", resp.StatusCode)
		}
	}

	instance, err := os.ReadFile("../../examples/example1.dqdimacs")
	if err != nil {
		t.Fatalf("read example: %v", err)
	}
	info := postSolve(t, base, "engine=portfolio&timeout=30s", instance)
	if info.Outcome.Verdict != service.VerdictSat {
		t.Fatalf("solve over HTTP: info %+v", info)
	}
	fmt.Printf("smoke: %s solved example1 -> %v (engine %s) in %dms\n",
		base, info.Outcome.Verdict, info.Outcome.Engine, info.SolveTimeMS)

	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatalf("SIGTERM: %v", err)
	}
	done := make(chan error, 1)
	go func() { done <- cmd.Wait() }()
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("hqsd exited with %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("hqsd did not drain after SIGTERM")
	}
}

// TestStoreKillRecoverySmoke is the persistence acceptance drill: an hqsd
// with -store solves an instance, dies to SIGKILL (no drain, no journal
// close), and a fresh process over the same directory serves the result from
// disk — certificate re-verified — instead of re-solving.
func TestStoreKillRecoverySmoke(t *testing.T) {
	bin := buildHQSD(t)
	storeDir := filepath.Join(t.TempDir(), "results")
	instance, err := os.ReadFile("../../examples/example1.dqdimacs")
	if err != nil {
		t.Fatalf("read example: %v", err)
	}

	start := func() (*exec.Cmd, string) {
		return startHQSD(t, bin, "-workers", "2", "-store", storeDir, "-certify")
	}
	solve := func(base string) service.JobInfo {
		return postSolve(t, base, "engine=idq&timeout=30s", instance)
	}

	cmd1, base1 := start()
	defer cmd1.Process.Kill()
	if out := solve(base1).Outcome; out.Verdict != service.VerdictSat || out.FromStore {
		t.Fatalf("cold solve: %+v", out)
	}
	// kill -9: no drain, no store close, journal left open.
	if err := cmd1.Process.Signal(syscall.SIGKILL); err != nil {
		t.Fatalf("SIGKILL: %v", err)
	}
	cmd1.Wait()

	cmd2, base2 := start()
	defer cmd2.Process.Kill()
	out := solve(base2).Outcome
	if out.Verdict != service.VerdictSat || !out.FromStore {
		t.Fatalf("restart did not serve from the store: %+v", out)
	}
	stats := getStats(t, base2)
	if stats.StoreHits != 1 || stats.Store == nil || stats.Store.Hits != 1 {
		t.Fatalf("post-restart stats: %+v / %+v", stats, stats.Store)
	}
	fmt.Printf("smoke: result survived SIGKILL and served from %s with certificate re-verified\n", storeDir)
	cmd2.Process.Signal(syscall.SIGTERM)
	cmd2.Wait()
}

// TestServeFaultsSmoke is the -faults drill: one plan, built from the flag,
// reaches the scheduler and, through each job's budget, the engines. The
// first /solve dies at dispatch (ERROR); the second dispatches, loses its
// first HQS attempt to the injected preprocess failure, and is answered by
// the retry, which /stats counts. A plan naming a point no engine registers
// (defex.check, the seam of the retired definition-extraction engine) is
// refused at startup.
func TestServeFaultsSmoke(t *testing.T) {
	instance, err := os.ReadFile("../../examples/example1.dqdimacs")
	if err != nil {
		t.Fatalf("read example: %v", err)
	}
	bin := buildHQSD(t)
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second) // a daemon that starts is killed
	defer cancel()
	out, err := exec.CommandContext(ctx, bin, "-addr", "127.0.0.1:0", "-faults", "defex.check:error").CombinedOutput()
	if err == nil || !strings.Contains(string(out), `unknown point "defex.check"`) {
		t.Fatalf("hqsd -faults defex.check:error = %v\n%s\nwant an unknown-point refusal", err, out)
	}

	cmd, base := startHQSD(t, bin, "-workers", "1", "-cache-size", "-1",
		"-faults", "sched.dispatch:error:times=1;pipeline.preprocess:error:times=1")
	defer cmd.Process.Kill()

	if out := postSolve(t, base, "engine=hqs&timeout=30s", instance).Outcome; out.Verdict != service.VerdictError ||
		!strings.Contains(out.Error, "dispatch failed") {
		t.Fatalf("first solve: %+v, want the injected dispatch ERROR", out)
	}
	if out := postSolve(t, base, "engine=hqs&timeout=30s", instance).Outcome; out.Verdict != service.VerdictSat ||
		out.Attempts != 2 {
		t.Fatalf("second solve: %+v, want SAT on the second attempt", out)
	}
	if st := getStats(t, base); st.Errors != 1 || st.Retries != 1 {
		t.Fatalf("stats: %d errors, %d retries; want 1 and 1", st.Errors, st.Retries)
	}
	fmt.Printf("smoke: -faults reached dispatch and the engine (1 error, 1 retry)\n")
	cmd.Process.Signal(syscall.SIGTERM)
	cmd.Wait()
}
