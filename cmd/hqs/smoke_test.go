//go:build smoke

package main

// The smoke test drives the real hqs binary: build it and check that a
// retired engine name is refused with the unknown-engine error. Run it via
// `make serve-smoke` (tag-gated, like the daemon smokes).

import (
	"errors"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestHQSRetiredEngineSmoke: -engine defex names the retired
// definition-extraction engine; hqs exits 1 with the unknown-engine error,
// which lists the engines that remain.
func TestHQSRetiredEngineSmoke(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "hqs")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	out, err := exec.Command(bin, "-engine", "defex", "../../examples/example1.dqdimacs").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 1 {
		t.Fatalf("hqs -engine defex: %v, want exit status 1\n%s", err, out)
	}
	const want = `unknown engine "defex" (want hqs, idq, expand, or portfolio)`
	if !strings.Contains(string(out), want) {
		t.Fatalf("hqs -engine defex printed %q, want it to contain %q", out, want)
	}
}
