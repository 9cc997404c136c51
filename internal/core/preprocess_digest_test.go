package core_test

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/cert"
	"repro/internal/core"
	"repro/internal/dqbf"
)

// digestCorpus is the fixed preprocessing corpus: the paper's seven PEC
// families at small widths, seeded random formulas, and Example 1.
func digestCorpus(t *testing.T) []struct {
	name string
	f    *dqbf.Formula
} {
	t.Helper()
	var out []struct {
		name string
		f    *dqbf.Formula
	}
	add := func(name string, f *dqbf.Formula) {
		out = append(out, struct {
			name string
			f    *dqbf.Formula
		}{name, f})
	}
	for _, width := range []int{2, 3, 4} {
		fams, err := bench.GenerateAll(bench.GenOptions{Count: 4, Seed: 20150309, MaxWidth: width})
		if err != nil {
			t.Fatal(err)
		}
		for _, fam := range bench.Families {
			for _, inst := range fams[fam] {
				add(fmt.Sprintf("w%d/%s", width, inst.Name), inst.Formula)
			}
		}
	}
	rng := rand.New(rand.NewSource(2015))
	for i := 0; i < 300; i++ {
		nu, ne := 1+rng.Intn(4), 1+rng.Intn(6)
		add(fmt.Sprintf("random/%03d", i), dqbf.RandomFormula(rng, nu, ne, 2+rng.Intn(3*(nu+ne))))
	}
	ex, err := dqbf.ParseDQDIMACS([]byte("p cnf 4 4\na 1 2 0\nd 3 1 0\nd 4 2 0\n-3 1 0\n3 -1 0\n-4 2 0\n4 -2 0\n"))
	if err != nil {
		t.Fatal(err)
	}
	add("example1", ex)
	return out
}

// preprocessDigest hashes everything PreprocessCert produces: the
// preprocessed formula as DQDIMACS, the result with its counters and gates,
// and the certificate builder's recorded steps (printed field by field, as
// fmt renders the builder's unexported state).
func preprocessDigest(f *dqbf.Formula, gates bool) string {
	work := f.Clone()
	cb := cert.NewBuilder()
	res, err := core.PreprocessCert(work, gates, cb)
	h := sha256.New()
	fmt.Fprintf(h, "err=%v\n", err)
	if err := work.WriteDQDIMACS(h); err != nil {
		fmt.Fprintf(h, "write=%v\n", err)
	}
	fmt.Fprintf(h, "%+v\n%+v\n", res, *cb)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// TestPreprocessDigestsPinned pins the exact output of CNF preprocessing —
// formula, counters, gates and certificate steps — with and without gate
// detection, over the fixed corpus. Preprocessing feeds every solve, so a
// changed digest means verdict-preserving but schedule-moving output, which
// would shift certificates, merges and golden traces downstream.
func TestPreprocessDigestsPinned(t *testing.T) {
	var b bytes.Buffer
	for _, inst := range digestCorpus(t) {
		for _, gates := range []bool{false, true} {
			fmt.Fprintf(&b, "%s gates=%v %s\n", inst.name, gates, preprocessDigest(inst.f, gates))
		}
	}
	got := b.String()
	path := filepath.Join("testdata", "preprocess_digests.txt")
	if *updateGolden {
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update to regenerate)", err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	if len(gl) != len(wl) {
		t.Fatalf("corpus size changed: %d digests, want %d", len(gl), len(wl))
	}
	var diff []string
	for i := range gl {
		if gl[i] != wl[i] {
			diff = append(diff, gl[i])
		}
	}
	t.Errorf("%d preprocessing digests diverged from %s; first: %v", len(diff), path, diff[:min(5, len(diff))])
}
