//go:build smoke

package main

// The smoke tests drive the real hqs binary: build it, check that a
// retired engine name is refused with the unknown-engine error, and check
// what -stats reports. Run them via `make serve-smoke` (tag-gated, like the
// daemon smokes).

import (
	"errors"
	"fmt"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// buildHQS builds the hqs binary into a temporary directory.
func buildHQS(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hqs")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestHQSRetiredEngineSmoke: -engine defex names the retired
// definition-extraction engine; hqs exits 1 with the unknown-engine error,
// which lists the engines that remain.
func TestHQSRetiredEngineSmoke(t *testing.T) {
	bin := buildHQS(t)
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

// TestHQSStatsSmoke: hqs -stats on the 3∃/2∀/2∃ QBF of core's
// TestUnitPureOffEverywhere answers SAT (exit 10), names the final SAT call
// of the linear phase as the deciding pass, and reports the main loop's two
// unit/pure eliminations.
func TestHQSStatsSmoke(t *testing.T) {
	bin := buildHQS(t)
	out, err := exec.Command(bin, "-stats", "testdata/unitpure.qdimacs").CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != 10 {
		t.Fatalf("hqs -stats: %v, want exit status 10 (SAT)\n%s", err, out)
	}
	if !strings.Contains(string(out), "c decided by      qbf/finalsat\n") {
		t.Errorf("hqs -stats does not name qbf/finalsat as the deciding pass:\n%s", out)
	}
	var units, pures int
	for _, line := range strings.Split(string(out), "\n") {
		if rest, ok := strings.CutPrefix(line, "c unit/pure"); ok {
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%d/%d", &units, &pures); err != nil {
				t.Fatalf("unit/pure line %q: %v", line, err)
			}
		}
	}
	if units+pures != 2 {
		t.Errorf("hqs -stats reports unit/pure %d/%d, want 2 eliminations:\n%s", units, pures, out)
	}
}
