package leakcheck

import (
	"testing"
	"time"
)

// recorder implements TB and records failures instead of failing the real
// test, so the leak path itself can be asserted.
type recorder struct {
	cleanups []func()
	failed   bool
	msg      string
}

func (r *recorder) Helper()                           {}
func (r *recorder) Cleanup(f func())                  { r.cleanups = append(r.cleanups, f) }
func (r *recorder) Errorf(format string, args ...any) { r.failed = true; r.msg = format }
func (r *recorder) runCleanups() {
	for i := len(r.cleanups) - 1; i >= 0; i-- {
		r.cleanups[i]()
	}
}

func TestNoLeakPasses(t *testing.T) {
	r := &recorder{}
	Check(r)
	done := make(chan struct{})
	go func() { close(done) }() // starts and exits before cleanup
	<-done
	r.runCleanups()
	if r.failed {
		t.Fatalf("clean test flagged as leaking: %s", r.msg)
	}
}

func TestTransientGoroutineTolerated(t *testing.T) {
	r := &recorder{}
	Check(r)
	// A goroutine that outlives the test body but exits within the grace
	// period must not be reported.
	go func() { time.Sleep(50 * time.Millisecond) }()
	r.runCleanups()
	if r.failed {
		t.Fatalf("transient goroutine flagged as leak: %s", r.msg)
	}
}

func TestLeakDetected(t *testing.T) {
	snap := goroutines()
	stop := make(chan struct{})
	defer close(stop)
	go func() { <-stop }() // leaks until the deferred close

	deadline := time.Now().Add(200 * time.Millisecond)
	var extra []string
	for {
		extra = leaked(snap)
		if len(extra) > 0 || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if len(extra) == 0 {
		t.Fatal("blocked goroutine not detected")
	}
}
