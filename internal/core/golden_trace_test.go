package core_test

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/cert"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/dqbf"
	"repro/internal/pec"
	"repro/internal/problem"
	"repro/internal/trace"
)

var updateGolden = flag.Bool("update", false, "rewrite the golden trace files")

// goldenLine is the stable projection of a trace event: the pass sequence
// and whether each pass changed the state. Counters and timings are
// deliberately excluded — they vary with machine speed and incidental
// implementation detail; the pass schedule and the verdict must not.
type goldenLine struct {
	Stage   string `json:"stage"`
	Pass    string `json:"pass"`
	Changed bool   `json:"changed"`
}

func goldenTrace(t *testing.T, f *dqbf.Formula, certify bool) (string, core.Result) {
	t.Helper()
	rec := trace.NewRecorder(0)
	opt := core.DefaultOptions()
	opt.Trace = rec
	opt.Certify = certify
	res := core.New(opt).Solve(problem.FromDQBF(f))
	if res.Status != core.Solved {
		t.Fatalf("status %v, want solved", res.Status)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "{\"verdict\":%q}\n", map[bool]string{true: "SAT", false: "UNSAT"}[res.Sat])
	for _, ev := range rec.Events() {
		line, err := json.Marshal(goldenLine{Stage: ev.Stage, Pass: ev.Pass, Changed: ev.Changed})
		if err != nil {
			t.Fatal(err)
		}
		b.Write(line)
		b.WriteString("\n")
	}
	return b.String(), res
}

func checkGolden(t *testing.T, name, got string) {
	t.Helper()
	path := filepath.Join("testdata", name)
	if *updateGolden {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got != string(want) {
		t.Errorf("pass schedule diverged from %s (run with -update if intentional)\n--- got ---\n%s--- want ---\n%s",
			path, got, want)
	}
}

// TestGoldenTraceExample1 pins the pass schedule and verdict of the
// repository's worked example: any change to the pipeline assembly, pass
// ordering, or elimination behavior shows up as a diff against the
// checked-in golden JSONL.
func TestGoldenTraceExample1(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("..", "..", "examples", "example1.dqdimacs"))
	if err != nil {
		t.Fatal(err)
	}
	f, err := dqbf.ParseDQDIMACS(data)
	if err != nil {
		t.Fatal(err)
	}
	got, res := goldenTrace(t, f, false)
	if !res.Sat {
		t.Errorf("example1 must be SAT")
	}
	checkGolden(t, "golden_trace_example1.jsonl", got)
	certifiedGoldenTrace(t, f, got)
}

// certifiedGoldenTrace re-solves with certification on and requires the
// identical pass schedule (extraction must not perturb the pipeline) plus a
// certificate the independent checker accepts.
func certifiedGoldenTrace(t *testing.T, f *dqbf.Formula, want string) {
	t.Helper()
	got, res := goldenTrace(t, f, true)
	if got != want {
		t.Errorf("certified pass schedule diverged from uncertified\n--- certified ---\n%s--- uncertified ---\n%s", got, want)
	}
	if res.CertErr != nil {
		t.Fatalf("certificate extraction failed: %v", res.CertErr)
	}
	if err := cert.Check(f, res.Certificate); err != nil {
		t.Fatalf("certificate rejected: %v", err)
	}
}

// TestGoldenTracePECAdder pins the pass schedule on a PEC instance of the
// paper's workload family: a 3-bit carry-lookahead adder checked against a
// ripple-carry specification with two per-bit cells black-boxed (two boxes
// with incomparable input cones — the genuinely DQBF case).
func TestGoldenTracePECAdder(t *testing.T) {
	spec := circuit.RippleCarryAdder(3)
	impl := circuit.CarryLookaheadAdder(3)
	var groups [][]int
	for _, name := range []string{"g0", "p2"} {
		id := impl.Signal(name)
		if id < 0 {
			t.Fatalf("no signal %q", name)
		}
		groups = append(groups, []int{id})
	}
	incomplete, boxes, err := pec.CutBoxes(impl, groups)
	if err != nil {
		t.Fatal(err)
	}
	f, err := (&pec.Problem{Spec: spec, Impl: incomplete, Boxes: boxes}).ToDQBF()
	if err != nil {
		t.Fatal(err)
	}
	got, res := goldenTrace(t, f, false)
	if !res.Sat {
		t.Errorf("correct adder cut must be realizable (SAT)")
	}
	checkGolden(t, "golden_trace_pecadder.jsonl", got)
	certifiedGoldenTrace(t, f, got)
}
