package dqbf

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
)

// FuzzDQDIMACSReader feeds arbitrary bytes to the strict DQDIMACS reader.
// Three properties: the reader never panics; it agrees with the reference
// line reader (scannerParseDQDIMACS) on every input, producing the same
// formula or the same error text; and any input it accepts round-trips
// through the writer — write → parse → write must be a fixpoint (the writer
// emits the canonical form, so one write normalizes and the second must
// reproduce it byte for byte).
func FuzzDQDIMACSReader(f *testing.F) {
	seeds := []string{
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
		// The byte reader's edge cases: CRLF line ends, \v and \f, the
		// Unicode spaces U+0085 and U+00A0, integer spellings Atoi accepts,
		// a 20-digit overflow, a clause-like comment, a problem line after
		// clauses, and a last line with no newline.
		"p cnf 3 2\r\na 1 0\r\nd 3 1 0\r\n1 3 0\r\n-1 -3 0\r\n",
		"p\vcnf 2 1\na\f1 0\ne 2 0\v\n1\v-2\f0\n",
		"p cnf 2 1\na\u00851 0\ne\u00a02 0\n1\u0085-2\u00a00\n",
		"p cnf 7 2\na +3 007 0\ne 5 -0\n+3 -007 -0\n5 0\n",
		"p cnf 3 1\n1 99999999999999999999 0\n",
		"p cnf 3 1\na 99999999999999999999 0\n",
		"p cnf 2 1\nc1 2 0\n1 2 0\n",
		"p cnf 2 1\n1 2 0\np cnf 2 1\n",
		"p cnf 3 1\na 1 0\nd 3 1 0\n1 -3 0",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		formula, err := ParseDQDIMACSBytes(data)
		ref, refErr := scannerParseDQDIMACS(bytes.NewReader(data))
		if got, want := readerOutcome(formula, err), readerOutcome(ref, refErr); got != want {
			t.Fatalf("reader and reference disagree on %q:\n--- reader ---\n%s--- reference ---\n%s", data, got, want)
		}
		if err != nil {
			return
		}
		var first strings.Builder
		if err := formula.WriteDQDIMACS(&first); err != nil {
			t.Fatalf("write of accepted formula failed: %v", err)
		}
		reparsed, err := ParseDQDIMACSString(first.String())
		if err != nil {
			t.Fatalf("writer output rejected by parser: %v\noutput:\n%s", err, first.String())
		}
		var second strings.Builder
		if err := reparsed.WriteDQDIMACS(&second); err != nil {
			t.Fatalf("second write failed: %v", err)
		}
		if first.String() != second.String() {
			t.Fatalf("write/parse/write not a fixpoint:\n--- first ---\n%s--- second ---\n%s",
				first.String(), second.String())
		}
	})
}

// readerOutcome renders a parse result for comparison: the error text, or
// the prefix order and the formula written as DQDIMACS.
func readerOutcome(f *Formula, err error) string {
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

// FuzzGround checks the universal expansion against the Skolem-table
// enumeration: every fuzzed DQDIMACS input the reader accepts is a valid
// DQBF, and for one small enough for BruteForce, grounding the matrix under
// all universal assignments is satisfiable exactly when the DQBF is.
func FuzzGround(f *testing.F) {
	seeds := []string{
		// Example 1 of the paper: satisfiable.
		"p cnf 4 4\na 1 2 0\nd 3 1 0\nd 4 2 0\n-3 1 0\n3 -1 0\n-4 2 0\n4 -2 0\n",
		// Its dependencies crossed: unsatisfiable.
		"p cnf 4 4\na 1 2 0\nd 3 2 0\nd 4 1 0\n-3 1 0\n3 -1 0\n-4 2 0\n4 -2 0\n",
		// A self-dependency, which the reader must reject.
		"p cnf 7 0\nd 1 1 0\n",
	}
	for _, s := range seeds {
		f.Add([]byte(s))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		formula, err := ParseDQDIMACS(bytes.NewReader(data))
		if err != nil {
			return
		}
		if err := formula.Validate(); err != nil {
			t.Fatalf("reader accepted an invalid formula: %v\n%q", err, data)
		}
		if formula.Matrix.NumVars > 1<<12 || !smallForBruteForce(formula) {
			return
		}
		want, err := BruteForce(formula)
		if err != nil {
			return
		}
		if got := groundAll(t, formula); got != want {
			t.Fatalf("full grounding %v, brute force %v\n%v\n%v", got, want, formula, formula.Matrix.Clauses)
		}
	})
}
