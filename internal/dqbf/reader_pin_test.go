package dqbf_test

import (
	"bytes"
	"crypto/sha256"
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"repro/internal/bench"
	"repro/internal/dqbf"
)

var updateReaderPin = flag.Bool("update", false, "rewrite the DQDIMACS reader digests")

// pinSeeds are the FuzzDQDIMACSReader seeds the reader pin was generated
// with. The list is frozen: new fuzz seeds go to the fuzz target only, so
// the pinned corpus never moves.
var pinSeeds = []string{
	"p cnf 0 0\n",
	"p cnf 2 1\na 1 0\ne 2 0\n1 -2 0\n",
	"p cnf 3 2\na 1 0\nd 3 1 0\n1 3 0\n-1 -3 0\n",
	"p cnf 4 2\nc comment\na 1 2 0\ne 3 0\nd 4 1 0\n3 -4 0\n1 2 3 4 0\n",
	"p cnf 2 1\n1 2 0",
	"p cnf 1 1\n\n1 0\n",
	"garbage\n",
	"p cnf 1 1\na 99 0\n1 0\n",
	"p cnf 7 0\nd 1 1 0\n",
	"p cnf 1073741823 1\na 1073741823 0\ne 1 0\n1 1073741823 0\n",
}

// pinCorpusFiles are the committed FuzzDQDIMACSReader corpus files the pin
// reads, by name, so a corpus file added later does not move the pin.
var pinCorpusFiles = []string{
	"seed_basic", "seed_depsets", "seed_freevars",
	"seed_literal_overflow", "seed_malformed", "seed_minimal",
}

// pinSplices are the byte strings the mutator inserts: whitespace the
// reader must treat as such (ASCII and Unicode), integer spellings
// strconv.Atoi accepts or rejects, and fragments of prefix and problem lines.
var pinSplices = []string{
	" ", "\n", "\r\n", "\t", "\v", "\f", "\r", "\u0085", "\u00a0", "\u2028", "\u3000",
	"\xc2", "\x85", "\xff", "\x00",
	"0", "1", "-", "+", "+3", "-0", "007", "99999999999999999999", "9223372036854775807", "-9223372036854775808",
	"c", "c ", "p", "p cnf 3 3\n", "p cnf 5 2", "a ", "e ", "d ", "a 1 0\n", "e 2 0\n", "d 2 1 0\n", " 0\n", "x",
}

// pinBases returns the unmutated inputs of the reader pin: the seven
// families at small widths, seeded random formulas, Example 1, and the
// fuzz seeds and corpus files.
func pinBases(t *testing.T) []string {
	t.Helper()
	var out []string
	write := func(f *dqbf.Formula) {
		var b strings.Builder
		if err := f.WriteDQDIMACS(&b); err != nil {
			t.Fatal(err)
		}
		out = append(out, b.String())
	}
	for _, width := range []int{2, 3} {
		fams, err := bench.GenerateAll(bench.GenOptions{Count: 2, Seed: 20150309, MaxWidth: width})
		if err != nil {
			t.Fatal(err)
		}
		for _, fam := range bench.Families {
			for _, inst := range fams[fam] {
				write(inst.Formula)
			}
		}
	}
	rng := rand.New(rand.NewSource(2016))
	for i := 0; i < 60; i++ {
		nu, ne := 1+rng.Intn(4), 1+rng.Intn(6)
		write(dqbf.RandomFormula(rng, nu, ne, 2+rng.Intn(3*(nu+ne))))
	}
	out = append(out, "p cnf 4 4\na 1 2 0\nd 3 1 0\nd 4 2 0\n-3 1 0\n3 -1 0\n-4 2 0\n4 -2 0\n")
	out = append(out, pinSeeds...)
	for _, name := range pinCorpusFiles {
		raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzDQDIMACSReader", name))
		if err != nil {
			t.Fatal(err)
		}
		lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
		lit := strings.TrimSuffix(strings.TrimPrefix(lines[len(lines)-1], "[]byte("), ")")
		s, err := strconv.Unquote(lit)
		if err != nil {
			t.Fatalf("corpus file %s: %v", name, err)
		}
		out = append(out, s)
	}
	return out
}

// pinMutate applies one to three seeded edits to in: a byte replaced,
// inserted or deleted, a splice inserted, or a line duplicated or dropped.
func pinMutate(rng *rand.Rand, in string) string {
	b := []byte(in)
	for n := 1 + rng.Intn(3); n > 0; n-- {
		pos := 0
		if len(b) > 0 {
			pos = rng.Intn(len(b) + 1)
		}
		switch rng.Intn(6) {
		case 0:
			if pos < len(b) {
				b[pos] = byte(rng.Intn(256))
			}
		case 1:
			b = append(b[:pos], append([]byte{" 0-\n\t\r"[rng.Intn(6)]}, b[pos:]...)...)
		case 2:
			if pos < len(b) {
				b = append(b[:pos], b[pos+1:]...)
			}
		case 3:
			s := pinSplices[rng.Intn(len(pinSplices))]
			b = append(b[:pos], append([]byte(s), b[pos:]...)...)
		case 4, 5:
			lines := bytes.SplitAfter(b, []byte("\n"))
			i := rng.Intn(len(lines))
			if rng.Intn(2) == 0 {
				lines = append(lines[:i+1], lines[i:]...)
			} else {
				lines = append(lines[:i], lines[i+1:]...)
			}
			b = bytes.Join(lines, nil)
		}
	}
	return string(b)
}

// readerResult renders what the reader makes of in: the error text for a
// rejected input; for an accepted one the prefix order and the formula
// re-written as DQDIMACS.
func readerResult(in string) string {
	f, err := dqbf.ParseDQDIMACSString(in)
	if err != nil {
		return "error: " + err.Error() + "\n"
	}
	var b strings.Builder
	fmt.Fprintf(&b, "univ=%v exist=%v\n", f.Univ, f.Exist)
	if err := f.WriteDQDIMACS(&b); err != nil {
		fmt.Fprintf(&b, "write error: %v\n", err)
	}
	return b.String()
}

// TestDQDIMACSReaderPinned pins the DQDIMACS reader and writer: over the
// fixed corpus and 40 seeded byte-mutations of each of its inputs, every
// accepted input must parse to the same formula bytes and every rejected
// one must fail with the same error text, line number included. One digest
// per corpus input covers the input and its mutations.
func TestDQDIMACSReaderPinned(t *testing.T) {
	var b bytes.Buffer
	accepted, rejected := 0, 0
	for i, base := range pinBases(t) {
		rng := rand.New(rand.NewSource(int64(i)))
		h := sha256.New()
		for j := 0; j <= 40; j++ {
			in := base
			if j > 0 {
				in = pinMutate(rng, base)
			}
			res := readerResult(in)
			if strings.HasPrefix(res, "error: ") {
				rejected++
			} else {
				accepted++
			}
			fmt.Fprintf(h, "%d:%s", len(res), res)
		}
		fmt.Fprintf(&b, "%03d %x\n", i, h.Sum(nil))
	}
	t.Logf("%d inputs accepted, %d rejected", accepted, rejected)
	got := b.String()
	path := filepath.Join("testdata", "reader_digests.txt")
	if *updateReaderPin {
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
	t.Errorf("%d reader digests diverged from %s; first: %v", len(diff), path, diff[:min(5, len(diff))])
}
