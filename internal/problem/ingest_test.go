package problem_test

import (
	"runtime"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/problem"
)

// raceEnabled reports whether the test binary runs under the race detector
// (set by race_test.go).
var raceEnabled bool

// ingestInputs are the requests the ingest guard and benchmark parse: the
// paper's Example 1 and the first adder instance at width 4, as DQDIMACS.
func ingestInputs(tb testing.TB) []struct {
	name string
	data []byte
} {
	tb.Helper()
	fams, err := bench.GenerateAll(bench.GenOptions{Count: 1, Seed: 20150309, MaxWidth: 4})
	if err != nil {
		tb.Fatal(err)
	}
	var adder strings.Builder
	if err := fams[bench.Families[0]][0].Formula.WriteDQDIMACS(&adder); err != nil {
		tb.Fatal(err)
	}
	return []struct {
		name string
		data []byte
	}{
		{"example1", []byte("p cnf 4 4\na 1 2 0\nd 3 1 0\nd 4 2 0\n-3 1 0\n3 -1 0\n-4 2 0\n4 -2 0\n")},
		{string(bench.Families[0]), []byte(adder.String())},
	}
}

// ingest parses data as hqsd parses a request sent as DQDIMACS, and takes its
// canonical hash.
func ingest(tb testing.TB, data []byte) {
	p, err := problem.ParseBytes(data, problem.FormatDQDIMACS)
	if err != nil {
		tb.Fatal(err)
	}
	_ = p.CanonicalHash()
}

// TestIngestAllocs guards the allocation cost of ingest, ParseBytes plus
// CanonicalHash, per request. Each bound is twice the cost measured when
// the guard was set (Go 1.24, linux/amd64), so a regression such as a
// reader preallocating a fixed 64 KiB buffer per parse fails here.
func TestIngestAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector drops sync.Pool items at random, so the hash state is reallocated")
	}
	bounds := map[string]struct{ allocs, bytes float64 }{
		"example1": {2 * 20, 2 * 928},
		"adder":    {2 * 32, 2 * 14368},
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	for _, in := range ingestInputs(t) {
		const runs = 200
		ingest(t, in.data) // warm up
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < runs; i++ {
			ingest(t, in.data)
		}
		runtime.ReadMemStats(&after)
		allocs := float64(after.Mallocs-before.Mallocs) / runs
		bytes := float64(after.TotalAlloc-before.TotalAlloc) / runs
		t.Logf("%s (%d bytes): %.1f allocs, %.0f bytes per ingest", in.name, len(in.data), allocs, bytes)
		b := bounds[in.name]
		if allocs > b.allocs || bytes > b.bytes {
			t.Errorf("%s: %.1f allocs and %.0f bytes per ingest, bound %.0f and %.0f", in.name, allocs, bytes, b.allocs, b.bytes)
		}
	}
}

// BenchmarkIngest reports the time and allocations of ingest per request.
func BenchmarkIngest(b *testing.B) {
	for _, in := range ingestInputs(b) {
		b.Run(in.name, func(b *testing.B) {
			b.ReportAllocs()
			b.SetBytes(int64(len(in.data)))
			for i := 0; i < b.N; i++ {
				ingest(b, in.data)
			}
		})
	}
}
