package dqbf

import (
	"bufio"
	"bytes"
	"errors"
	"fmt"
	"strings"
	"testing"
)

// TestParseMalformedInputs exercises the strict reader: every case must be
// rejected, and the error must carry the offending line number.
func TestParseMalformedInputs(t *testing.T) {
	cases := []struct {
		name    string
		in      string
		wantErr string // substring of the expected error
	}{
		{"missing problem line", "a 1 0\n1 0\n", "line 1"},
		{"clause before problem line", "1 2 0\n", "line 1"},
		{"duplicate problem line", "p cnf 2 1\np cnf 2 1\n1 2 0\n", "line 2: duplicate problem line"},
		{"problem line extra tokens", "p cnf 2 1 7\n", "malformed problem line"},
		{"problem line too short", "p cnf 2\n", "malformed problem line"},
		{"not cnf", "p dnf 2 1\n1 2 0\n", "malformed problem line"},
		{"bad variable count", "p cnf x 1\n", "bad variable count"},
		{"negative variable count", "p cnf -2 1\n", "bad variable count"},
		{"variable count beyond int32", "p cnf 10000000000 1\n", "bad variable count"},
		{"variable count beyond literal range", "p cnf 2000000000 1\n", "bad variable count"},
		{"variable count beyond the input", "p cnf 1073741823 1\na 1073741823 0\ne 1 0\n1 1073741823 0\n",
			"line 1: 1073741823 variables declared for 4 quantified variables and literals"},
		{"bad clause count", "p cnf 2 many\n", "bad clause count"},
		{"negative clause count", "p cnf 2 -1\n", "bad clause count"},
		{"prefix var not a number", "p cnf 2 1\na one 0\n", "line 2: bad variable"},
		{"prefix var negative", "p cnf 2 1\na -1 0\n", "line 2: negative variable"},
		{"prefix var out of range", "p cnf 2 1\na 3 0\n", "line 2: variable 3 out of range"},
		{"dep var out of range", "p cnf 3 1\na 1 0\nd 2 7 0\n", "line 3: variable 7 out of range"},
		{"prefix line unterminated", "p cnf 2 1\na 1\n", "line 2: quantifier line not terminated by 0"},
		{"prefix trailing tokens", "p cnf 3 1\na 1 0 2\n", "line 2: trailing tokens after terminating 0"},
		{"empty d line", "p cnf 2 1\nd 0\n", "empty d line"},
		{"literal not a number", "p cnf 2 1\n1 zwei 0\n", "bad literal"},
		{"literal out of range", "p cnf 2 1\n1 3 0\n", "line 2: literal 3 out of range"},
		{"negative literal out of range", "p cnf 2 1\n-4 1 0\n", "line 2: literal -4 out of range"},
		{"literal beyond int32", "p cnf 0 0\n10000000000", "line 2: literal 10000000000 out of range"},
		{"quantifier after clauses", "p cnf 2 1\n1 2 0\na 1 0\n", "quantifier line after clauses"},
		{"self-dependency", "p cnf 7 0\nd 1 1 0\n", "line 2: existential 1 depends on itself"},
		{"dependency on an existential", "p cnf 3 0\na 1 0\ne 2 0\nd 3 1 2 0\n", "line 4: existential 3 depends on existential 2"},
		{"dependency never universal", "p cnf 3 1\na 1 0\nd 3 2 0\n2 3 0\n", "dependency set of 3 contains non-universals"},
		{"universal quantified twice", "p cnf 2 0\na 1 2 0\na 2 0\n", "line 3: variable 2 quantified twice"},
		{"existential also universal", "p cnf 2 0\na 1 0\ne 2 1 0\n", "line 3: variable 1 quantified twice"},
		{"existential quantified twice", "p cnf 3 0\na 1 0\nd 2 1 0\ne 3 2 0\n", "line 4: variable 2 quantified twice"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := ParseDQDIMACS([]byte(tc.in))
			if err == nil {
				t.Fatalf("no error for %q", tc.in)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not mention %q", err, tc.wantErr)
			}
		})
	}
}

// TestParseStrictAccepts pins down inputs that must stay accepted: comments
// and blank lines anywhere, multi-line clauses, an unterminated final
// clause, and e-lines inheriting the universals seen so far.
func TestParseStrictAccepts(t *testing.T) {
	in := `c header comment
p cnf 4 2

a 1 0
c interleaved comment
e 2 0
d 3 1 0
1 -2
3 0
-1 4
`
	f, err := ParseDQDIMACS([]byte(in))
	if err != nil {
		t.Fatal(err)
	}
	if len(f.Univ) != 1 || !f.IsExistential(2) || !f.IsExistential(3) {
		t.Fatalf("prefix: %v", f)
	}
	if !f.Deps[2].Has(1) {
		t.Fatal("e-line existential should depend on preceding universals")
	}
	if !f.IsExistential(4) || !f.Deps[4].Empty() {
		t.Fatal("free variable 4 should be an outermost existential")
	}
	if len(f.Matrix.Clauses) != 2 {
		t.Fatalf("clauses: %v", f.Matrix.Clauses)
	}
	if f.Matrix.NumVars != 4 {
		t.Fatalf("NumVars = %d, want 4", f.Matrix.NumVars)
	}
}

// TestDQDIMACSLineCap holds the reader to the reference line reader at the
// 16 MiB line cap: a line of 2^24-1 bytes is read, with or without its
// newline, and one of 2^24 bytes fails with bufio.ErrTooLong.
func TestDQDIMACSLineCap(t *testing.T) {
	for _, tc := range []struct {
		n       int
		newline bool
		tooLong bool
	}{
		{maxLine, true, false},
		{maxLine, false, false},
		{maxLine + 1, true, true},
		{maxLine + 1, false, true},
	} {
		in := make([]byte, 0, tc.n+32)
		in = append(in, "p cnf 0 0\n"...)
		in = append(in, 'c')
		in = append(in, bytes.Repeat([]byte{'x'}, tc.n-1)...)
		if tc.newline {
			in = append(in, "\n1 0\n"...)
		}
		_, err := ParseDQDIMACS(in)
		_, refErr := scannerParseDQDIMACS(bytes.NewReader(in))
		if got, want := fmt.Sprint(err), fmt.Sprint(refErr); got != want {
			t.Fatalf("line of %d bytes (newline %v): reader %q, reference %q", tc.n, tc.newline, got, want)
		}
		if tooLong := errors.Is(err, bufio.ErrTooLong); tooLong != tc.tooLong {
			t.Fatalf("line of %d bytes (newline %v): error %v", tc.n, tc.newline, err)
		}
	}
}
