// Package leakcheck asserts that a test leaks no goroutines: Check snapshots
// the live goroutines at the start of a test and registers a cleanup that
// fails the test if new goroutines are still alive at the end. It is the
// shared helper behind the scheduler chaos tests and the hqsd server tests,
// where a leaked worker or handler goroutine is a production bug.
//
// The comparison is by goroutine ID with a grace period: goroutines wind
// down asynchronously (worker pools draining, HTTP keep-alive connections
// closing), so the cleanup polls for a few seconds before declaring a leak.
// Known system goroutines that outlive any single test (signal handling,
// testing harness plumbing) are ignored.
package leakcheck

import (
	"runtime"
	"strings"
	"time"
)

// TB is the subset of testing.TB used here, split out so the package itself
// stays testable.
type TB interface {
	Helper()
	Cleanup(func())
	Errorf(format string, args ...any)
}

// ignored returns true for goroutine stacks that are expected to persist
// across tests and must not count as leaks.
func ignored(stack string) bool {
	for _, frag := range []string{
		"testing.Main(",
		"testing.tRunner(",
		"testing.(*T).Run(",
		"testing.runTests(",
		"testing.(*M).",
		"runtime.goexit0",
		"created by runtime.gc",
		"runtime.MHeap_Scavenger",
		"signal.signal_recv",
		"signal.loop",
		"os/signal.Notify",
		"runtime.ensureSigM",
		"go.opencensus.io",
		"net/http.(*persistConn).writeLoop",
		"net/http.(*persistConn).readLoop",
		"internal/poll.runtime_pollWait",
	} {
		if strings.Contains(stack, frag) {
			return true
		}
	}
	return false
}

// goroutines returns the current goroutine dump split per goroutine,
// keyed by the numeric goroutine ID from the header line.
func goroutines() map[string]string {
	buf := make([]byte, 1<<20)
	for {
		n := runtime.Stack(buf, true)
		if n < len(buf) {
			buf = buf[:n]
			break
		}
		buf = make([]byte, 2*len(buf))
	}
	out := make(map[string]string)
	for _, g := range strings.Split(string(buf), "\n\n") {
		g = strings.TrimSpace(g)
		if g == "" {
			continue
		}
		header, _, _ := strings.Cut(g, "\n")
		// header: "goroutine 12 [running]:"
		fields := strings.Fields(header)
		if len(fields) < 2 || fields[0] != "goroutine" {
			continue
		}
		out[fields[1]] = g
	}
	return out
}

// leaked returns the goroutines alive now that were not in baseline and are
// not on the ignore list.
func leaked(baseline map[string]string) []string {
	var out []string
	for id, stack := range goroutines() {
		if _, ok := baseline[id]; ok {
			continue
		}
		if ignored(stack) {
			continue
		}
		out = append(out, stack)
	}
	return out
}

// Check snapshots the live goroutines and registers a cleanup that fails t
// if goroutines created during the test are still running once the test (and
// every cleanup registered after Check) has finished. Call it first thing in
// the test, before starting schedulers or servers, so their shutdown
// cleanups run before the comparison.
func Check(t TB) {
	t.Helper()
	baseline := goroutines()
	t.Cleanup(func() {
		deadline := time.Now().Add(5 * time.Second)
		var extra []string
		for {
			extra = leaked(baseline)
			if len(extra) == 0 {
				return
			}
			if time.Now().After(deadline) {
				break
			}
			time.Sleep(10 * time.Millisecond)
		}
		t.Errorf("leakcheck: %d goroutine(s) leaked:\n\n%s", len(extra), strings.Join(extra, "\n\n"))
	})
}
