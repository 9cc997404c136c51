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
// unit/pure eliminations. On a frozen two-box C432 PEC instance (UNSAT,
// exit 20) the linear phase sweeps, and the sweep line splits the merges
// over the three deciders, each of which merges some: structural hashing,
// truth tables and SAT, and ends with the SAT-call and simulation-refutation
// counts.
func TestHQSStatsSmoke(t *testing.T) {
	bin := buildHQS(t)
	out := runStats(t, bin, "testdata/unitpure.qdimacs", 10)
	if !strings.Contains(out, "c decided by      qbf/finalsat\n") {
		t.Errorf("hqs -stats does not name qbf/finalsat as the deciding pass:\n%s", out)
	}
	var units, pures int
	if _, err := fmt.Sscanf(statsLine(t, out, "c unit/pure"), "%d/%d", &units, &pures); err != nil {
		t.Fatalf("unit/pure line: %v", err)
	}
	if units+pures != 2 {
		t.Errorf("hqs -stats reports unit/pure %d/%d, want 2 eliminations:\n%s", units, pures, out)
	}

	out = runStats(t, bin, "testdata/c432_w5_b2_000.dqdimacs", 20)
	line := statsLine(t, out, "c sweep merges")
	var merged, cands, hashed, table, sat, calls, refuted int
	if _, err := fmt.Sscanf(line, "%d of %d candidates: %d hashed, %d truth-table, %d SAT (%d SAT calls, %d sim-refuted)",
		&merged, &cands, &hashed, &table, &sat, &calls, &refuted); err != nil || !strings.HasSuffix(line, " sim-refuted)") {
		t.Fatalf("sweep line %q does not end with the sim-refuted count: %v", line, err)
	}
	if hashed <= 0 || table <= 0 || sat <= 0 || hashed+table+sat != merged || merged > cands {
		t.Errorf("sweep line %q: want every decider > 0, summing to the merges, at most the candidates", line)
	}
	if calls < 2*sat || merged+refuted > cands {
		t.Errorf("sweep line %q: want two SAT calls per SAT merge, and merges plus refutations at most the candidates", line)
	}
}

// runStats runs hqs -stats on file and returns its output, failing t unless
// hqs exits with code.
func runStats(t *testing.T, bin, file string, code int) string {
	t.Helper()
	out, err := exec.Command(bin, "-stats", file).CombinedOutput()
	var exit *exec.ExitError
	if !errors.As(err, &exit) || exit.ExitCode() != code {
		t.Fatalf("hqs -stats %s: %v, want exit status %d\n%s", file, err, code, out)
	}
	return string(out)
}

// statsLine returns the rest of the -stats line that starts with prefix,
// trimmed, failing t if there is none.
func statsLine(t *testing.T, out, prefix string) string {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if rest, ok := strings.CutPrefix(line, prefix); ok {
			return strings.TrimSpace(rest)
		}
	}
	t.Fatalf("hqs -stats printed no %q line:\n%s", prefix, out)
	return ""
}
