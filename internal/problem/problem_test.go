package problem

import (
	"bytes"
	"fmt"
	"runtime"
	"testing"
	"time"

	"repro/internal/circuit"
	"repro/internal/cnf"
	"repro/internal/dqbf"
)

const dqdimacsExample = `c paper example 1
p cnf 4 4
a 1 2 0
d 3 1 0
d 4 2 0
-3 1 0
3 -1 0
-4 2 0
4 -2 0
`

const qdimacsExample = `p cnf 3 2
a 1 0
e 2 3 0
1 2 0
-1 3 0
`

const benchExample = `INPUT(a)
OUTPUT(o)
o = XNOR(a, f)
`

const aagExample = `aag 3 2 0 1 1
2
4
6
6 4 2
i0 a_x
o0 out
`

const pqeExample = `p pqe 3 1 1
e 3 0
-3 0
3 1 0
`

func TestDetect(t *testing.T) {
	cases := []struct {
		name  string
		input string
		want  Format
	}{
		{"dqdimacs", dqdimacsExample, FormatDQDIMACS},
		{"qdimacs", qdimacsExample, FormatQDIMACS},
		{"qdimacs no prefix", "p cnf 1 1\n1 0\n", FormatQDIMACS},
		{"qdimacs empty matrix", "p cnf 0 0\n", FormatQDIMACS},
		{"aiger ascii", aagExample, FormatAIGER},
		{"aiger binary", "aig 0 0 0 0 0\n", FormatAIGER},
		{"bench", benchExample, FormatBENCH},
		{"bench after comment", "# netlist\nINPUT(a)\n", FormatBENCH},
		{"bench gate named c", "c = AND(a, b)\n", FormatBENCH},
		{"bench lowercase decl", "input(a)\noutput(a)\n", FormatBENCH},
		{"pqe", pqeExample, FormatPQE},
		{"dimacs comments first", "c hello\nc world\np cnf 1 1\n1 0\n", FormatQDIMACS},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got, err := detect([]byte(tc.input))
			if err != nil {
				t.Fatalf("Detect: %v", err)
			}
			if got != tc.want {
				t.Fatalf("Detect = %q, want %q", got, tc.want)
			}
		})
	}
}

func TestDetectErrors(t *testing.T) {
	for _, input := range []string{
		"",
		"\n\n",
		"c only comments\n",
		"p sat 3\n",
		"garbage line\n",
	} {
		if f, err := detect([]byte(input)); err == nil {
			t.Errorf("detect(%q) = %q, want error", input, f)
		}
	}
}

func TestParseBytesKinds(t *testing.T) {
	cases := []struct {
		name   string
		input  string
		format Format
		kind   Kind
	}{
		{"dqdimacs", dqdimacsExample, FormatDQDIMACS, KindDQBF},
		{"qdimacs", qdimacsExample, FormatQDIMACS, KindQBF},
		{"aiger", aagExample, FormatAIGER, KindQBF},
		{"bench", benchExample, FormatBENCH, KindQBF},
		{"pqe", pqeExample, FormatPQE, KindPQE},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			p, err := ParseBytes([]byte(tc.input), "")
			if err != nil {
				t.Fatalf("ParseBytes: %v", err)
			}
			if p.Format != tc.format || p.Kind != tc.kind {
				t.Fatalf("format/kind = %v/%v, want %v/%v", p.Format, p.Kind, tc.format, tc.kind)
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("Validate: %v", err)
			}
			if tc.kind == KindPQE {
				if p.PQE == nil || p.Formula != nil {
					t.Fatalf("PQE problem payload wrong: %+v", p)
				}
			} else if p.Formula == nil || p.PQE != nil {
				t.Fatalf("formula problem payload wrong: %+v", p)
			}
		})
	}
}

// TestParseBytesHint checks that an explicit hint bypasses detection: a
// DQDIMACS body parsed under the QDIMACS hint still parses (the readers
// share a grammar) but keeps the hinted format.
func TestParseBytesHint(t *testing.T) {
	p, err := ParseBytes([]byte(dqdimacsExample), FormatQDIMACS)
	if err != nil {
		t.Fatalf("ParseBytes: %v", err)
	}
	if p.Format != FormatQDIMACS {
		t.Fatalf("format = %q, want %q", p.Format, FormatQDIMACS)
	}
	if _, err := ParseBytes([]byte(benchExample), Format("tahiti")); err == nil {
		t.Fatal("unknown format hint accepted")
	}
}

func TestFormatFromContentType(t *testing.T) {
	cases := []struct {
		ct   string
		want Format
	}{
		{"application/x-dqdimacs", FormatDQDIMACS},
		{"application/x-qdimacs", FormatQDIMACS},
		{"application/x-aiger", FormatAIGER},
		{"application/x-bench", FormatBENCH},
		{"application/x-pqe", FormatPQE},
		{"Application/X-BENCH; charset=utf-8", FormatBENCH},
		{"text/plain", ""},
		{"application/octet-stream", ""},
		{"", ""},
		{"not a mime type;;;", ""},
	}
	for _, tc := range cases {
		if got := FormatFromContentType(tc.ct); got != tc.want {
			t.Errorf("FormatFromContentType(%q) = %q, want %q", tc.ct, got, tc.want)
		}
	}
}

func TestFormatFromPath(t *testing.T) {
	cases := []struct {
		path string
		want Format
	}{
		{"a/b/x.dqdimacs", FormatDQDIMACS},
		{"x.dqbf", FormatDQDIMACS},
		{"x.qdimacs", FormatQDIMACS},
		{"x.QBF", FormatQDIMACS},
		{"x.aag", FormatAIGER},
		{"x.aig", FormatAIGER},
		{"x.bench", FormatBENCH},
		{"x.pqe", FormatPQE},
		{"x.cnf", ""},
		{"stdin", ""},
	}
	for _, tc := range cases {
		if got := FormatFromPath(tc.path); got != tc.want {
			t.Errorf("FormatFromPath(%q) = %q, want %q", tc.path, got, tc.want)
		}
	}
}

// TestHashStableAcrossFormats is the acceptance invariant of the ingestion
// layer: the same instance submitted in different formats shares one
// canonical hash, hence one cache/store entry.
func TestHashStableAcrossFormats(t *testing.T) {
	// A BENCH-ingested partial-equivalence instance and its DQDIMACS
	// serialization.
	p1, err := ParseBytes([]byte(benchExample), "")
	if err != nil {
		t.Fatalf("parse bench: %v", err)
	}
	var buf bytes.Buffer
	if err := p1.Formula.WriteDQDIMACS(&buf); err != nil {
		t.Fatalf("write dqdimacs: %v", err)
	}
	p2, err := ParseBytes(buf.Bytes(), "")
	if err != nil {
		t.Fatalf("reparse dqdimacs: %v", err)
	}
	if p1.CanonicalHash() != p2.CanonicalHash() {
		t.Fatalf("hash changed across formats:\nbench    %s\ndqdimacs %s",
			p1.CanonicalHash(), p2.CanonicalHash())
	}
	if p1.Format == p2.Format {
		t.Fatalf("both problems claim format %q; the hash equality is vacuous", p1.Format)
	}
}

// TestHashStableAcrossAdderFormats runs the same invariant on a real adder
// miter — the instance family the acceptance scenario uses.
func TestHashStableAcrossAdderFormats(t *testing.T) {
	spec := circuit.RippleCarryAdder(1)
	impl := circuit.CarryLookaheadAdder(1)
	m, err := circuit.Miter(spec, impl)
	if err != nil {
		t.Fatalf("miter: %v", err)
	}
	var bench bytes.Buffer
	if err := m.WriteBench(&bench); err != nil {
		t.Fatalf("write bench: %v", err)
	}
	p1, err := ParseBytes(bench.Bytes(), "")
	if err != nil {
		t.Fatalf("parse bench: %v", err)
	}
	if p1.Format != FormatBENCH {
		t.Fatalf("detected %q, want bench", p1.Format)
	}
	var dq bytes.Buffer
	if err := p1.Formula.WriteDQDIMACS(&dq); err != nil {
		t.Fatalf("write dqdimacs: %v", err)
	}
	p2, err := ParseBytes(dq.Bytes(), "")
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if p1.CanonicalHash() != p2.CanonicalHash() {
		t.Fatal("adder instance hash differs between BENCH and DQDIMACS ingestion")
	}
}

func TestPQEHashDomainSeparated(t *testing.T) {
	p, err := ParseBytes([]byte(pqeExample), "")
	if err != nil {
		t.Fatalf("parse pqe: %v", err)
	}
	// The conjoined formula ∃x3[F ∧ G] as a plain one-block DQBF.
	f := dqbf.New()
	f.Matrix.NumVars = 3
	f.AddExistential(3)
	for _, c := range append(append([]cnf.Clause(nil), p.PQE.F...), p.PQE.G...) {
		f.Matrix.AddClause(c...)
	}
	if p.CanonicalHash() == CanonicalFormulaHash(f) {
		t.Fatal("PQE query hash collides with the conjoined formula hash")
	}
	// F/G are not interchangeable: swapping them must change the key.
	swapped := p.PQE.Clone()
	swapped.F, swapped.G = swapped.G, swapped.F
	if p.PQE.CanonicalHash() == swapped.CanonicalHash() {
		t.Fatal("PQE hash ignores the F/G split")
	}
}

// writePQE serializes the split in the dialect parsePQE reads, the
// reference TestPQERoundTrip holds the reader to.
func writePQE(q *PQESplit) []byte {
	var b bytes.Buffer
	fmt.Fprintf(&b, "p pqe %d %d %d\n", q.NumVars, len(q.F), len(q.G))
	if len(q.X) > 0 {
		b.WriteString("e")
		for _, x := range q.X {
			fmt.Fprintf(&b, " %d", x)
		}
		b.WriteString(" 0\n")
	}
	for _, cs := range [][]cnf.Clause{q.F, q.G} {
		for _, c := range cs {
			for _, l := range c {
				fmt.Fprintf(&b, "%d ", l.Dimacs())
			}
			b.WriteString("0\n")
		}
	}
	return b.Bytes()
}

func TestPQERoundTrip(t *testing.T) {
	p, err := ParseBytes([]byte(pqeExample), "")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	first := writePQE(p.PQE)
	p2, err := ParseBytes(first, "")
	if err != nil {
		t.Fatalf("reparse: %v", err)
	}
	if second := writePQE(p2.PQE); !bytes.Equal(first, second) {
		t.Fatalf("write→parse→write not a fixpoint:\n%q\n%q", first, second)
	}
	if p.CanonicalHash() != p2.CanonicalHash() {
		t.Fatal("round trip changed the canonical hash")
	}
}

func TestParsePQEMalformed(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"clause before problem line", "1 0\np pqe 1 1 0\n"},
		{"duplicate problem line", "p pqe 1 0 0\np pqe 1 0 0\n"},
		{"short problem line", "p pqe 1 1\n1 0\n"},
		{"negative count", "p pqe 1 -1 2\n"},
		{"e after clauses", "p pqe 2 1 0\n1 0\ne 2 0\n"},
		{"unterminated e line", "p pqe 2 0 0\ne 1 2\n"},
		{"tokens after 0", "p pqe 2 0 0\ne 1 0 2\n"},
		{"negative prefix var", "p pqe 2 0 0\ne -1 0\n"},
		{"prefix var out of range", "p pqe 1 0 0\ne 2 0\n"},
		{"literal out of range", "p pqe 1 1 0\n2 0\n"},
		{"literal wrapping into range", "p pqe 1 1 0\n4294967297 0\n"},
		{"count beyond int32", "p pqe 10000000000 0 0\n"},
		{"count beyond literal range", "p pqe 2000000000 0 0\n"},
		{"bad literal", "p pqe 1 1 0\nx 0\n"},
		{"clause count mismatch", "p pqe 1 2 1\n1 0\n"},
		{"duplicate X variable", "p pqe 2 0 0\ne 1 1 0\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseBytes([]byte(tc.input), FormatPQE); err == nil {
				t.Fatalf("accepted malformed input %q", tc.input)
			}
		})
	}
}

// TestParseAIGERMalformed mirrors the strict DQDIMACS reader tests: every
// malformed input is a clean error, never a panic or a silent misparse.
func TestParseAIGERMalformed(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"empty", ""},
		{"bad magic", "agg 1 1 0 0 0\n2\n"},
		{"short header", "aag 1 1 0 0\n"},
		{"negative count", "aag 1 -1 0 0 0\n"},
		{"latches", "aag 2 1 1 0 0\n2\n4 2\n"},
		{"too many ands", "aag 1 1 0 0 1\n2\n4 2 2\n"},
		{"truncated inputs", "aag 2 2 0 0 0\n2\n"},
		{"truncated outputs", "aag 1 1 0 1 0\n2\n"},
		{"truncated ands", "aag 2 1 0 0 1\n2\n"},
		{"bad literal", "aag 1 1 0 0 0\nx\n"},
		{"odd input literal", "aag 1 1 0 0 0\n3\n"},
		{"zero input literal", "aag 1 1 0 0 0\n0\n"},
		{"input exceeds maxvar", "aag 1 1 0 0 0\n4\n"},
		{"and lhs odd", "aag 2 1 0 0 1\n2\n5 2 2\n"},
		{"variable defined twice", "aag 2 1 0 0 1\n2\n2 2 2\n"},
		{"undefined rhs", "aag 3 1 0 0 1\n2\n4 6 2\n"},
		{"undefined output", "aag 2 1 0 1 0\n2\n4\n"},
		{"and line arity", "aag 2 1 0 0 1\n2\n4 2\n"},
		{"bad symbol line", "aag 1 1 0 0 0\n2\nq0 name\n"},
		{"symbol missing name", "aag 1 1 0 0 0\n2\ni0\n"},
		{"symbol empty name", "aag 1 1 0 0 0\n2\ni0 \n"},
		{"symbol pos out of range", "aag 1 1 0 0 0\n2\ni1 x\n"},
		{"duplicate symbol", "aag 1 1 0 0 0\n2\ni0 x\ni0 y\n"},
		{"binary truncated deltas", "aig 2 1 0 0 1\n"},
		{"binary delta zero", "aig 2 1 0 0 1\n\x00\x00"},
		{"binary delta overflow", "aig 2 1 0 0 1\n\xff\xff\xff\xff\xff\xff\x01\x00"},
		{"binary rhs negative", "aig 2 1 0 0 1\n\x7f\x7f"},
		{"maxvar beyond int32", "aag 3000000000 0 0 1 0\n1\n"},
		{"maxvar beyond literal range", "aag 2000000000 0 0 1 0\n1\n"},
		{"no variable left for constant", "aag 1073741823 0 0 1 0\n1\n"},
		{"binary inputs beyond the input", "aig 1073741823 1073741823 0 0 0"},
		{"binary outputs beyond the input", "aig 1073741823 1073741823 0 1073741823 0\n"},
		{"input literal above 2M", "aag 1 1 0 1 0\n100\n2\n"},
		{"and lhs above 2M", "aag 1 0 0 1 1\n2\n100 0 1\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseBytes([]byte(tc.input), FormatAIGER); err == nil {
				t.Fatalf("accepted malformed input %q", tc.input)
			}
		})
	}
}

func TestParseBENCHMalformed(t *testing.T) {
	cases := []struct {
		name, input string
	}{
		{"no assignment", "INPUT(a)\nfoo bar\n"},
		{"malformed declaration", "INPUT a\n"},
		{"empty declaration", "INPUT()\n"},
		{"malformed gate", "x = AND a, b\n"},
		{"unknown gate type", "x = MAJ(a, b, c)\n"},
		{"empty input name", "x = AND(a, )\n"},
		{"empty signal name", " = AND(a, b)\n"},
		{"not with two inputs", "x = NOT(a, b)\n"},
		{"buf with two inputs", "x = BUFF(a, b)\n"},
		{"xor with one input", "x = XOR(a)\n"},
		{"xor with three inputs", "x = XOR(a, b, c)\n"},
		{"xnor with three inputs", "x = XNOR(a, b, c)\n"},
		{"driven twice", "x = AND(a, b)\nx = OR(a, b)\n"},
		{"input redriven", "INPUT(x)\nx = AND(a, b)\n"},
		{"cycle", "x = NOT(y)\ny = NOT(x)\n"},
		{"undefined output", "INPUT(a)\nOUTPUT(z)\nx = NOT(a)\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := ParseBytes([]byte(tc.input), FormatBENCH); err == nil {
				t.Fatalf("accepted malformed input %q", tc.input)
			}
		})
	}
}

// TestAIGERAsciiBinaryEquivalent parses the same circuit in both AIGER
// flavors and checks the resulting problems hash identically.
func TestAIGERAsciiBinaryEquivalent(t *testing.T) {
	// One and gate: out = a_x ∧ i. Binary deltas for lhs 6, rhs0 4, rhs1 2
	// are 2 and 2.
	binary := "aig 3 2 0 1 1\n6\n\x02\x02\ni0 a_x\no0 out\n"
	pa, err := ParseBytes([]byte(aagExample), "")
	if err != nil {
		t.Fatalf("parse ascii: %v", err)
	}
	pb, err := ParseBytes([]byte(binary), "")
	if err != nil {
		t.Fatalf("parse binary: %v", err)
	}
	if pa.CanonicalHash() != pb.CanonicalHash() {
		t.Fatal("ascii and binary AIGER of the same circuit hash differently")
	}
	if len(pa.Formula.Univ) != 1 || len(pa.Formula.Exist) != 2 {
		t.Fatalf("quantifier split: %d universals, %d existentials, want 1/2",
			len(pa.Formula.Univ), len(pa.Formula.Exist))
	}
}

// TestAIGERConstants covers the lazily allocated constant-true variable for
// literals 0 and 1.
func TestAIGERConstants(t *testing.T) {
	// Output is the constant-true literal; a second output is constant false
	// — together they force an unsatisfiable matrix.
	p, err := ParseBytes([]byte("aag 1 1 0 2 0\n2\n1\n0\n"), "")
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	if p.Formula.Matrix.NumVars != 2 {
		t.Fatalf("NumVars = %d, want 2 (input + constant)", p.Formula.Matrix.NumVars)
	}
}

func TestFromCircuitFreeSignals(t *testing.T) {
	c, err := circuit.ParseBench([]byte(benchExample))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	p, err := fromCircuit(c)
	if err != nil {
		t.Fatalf("fromCircuit: %v", err)
	}
	if p.Kind != KindQBF {
		t.Fatalf("kind = %v, want qbf (circuit encodings are linear)", p.Kind)
	}
	if len(p.Formula.Univ) != 1 {
		t.Fatalf("universals = %v, want one (the primary input)", p.Formula.Univ)
	}
	// The free signal and the XNOR gate variable are existential.
	if len(p.Formula.Exist) < 2 {
		t.Fatalf("existentials = %v, want free signal + gate vars", p.Formula.Exist)
	}
	for _, y := range p.Formula.Exist {
		if p.Formula.Deps[y].Len() != len(p.Formula.Univ) {
			t.Fatalf("existential %d depends on %s, want the full universal set", y, p.Formula.Deps[y])
		}
	}
}

func TestProblemCloneIsDeep(t *testing.T) {
	p, err := ParseBytes([]byte(pqeExample), "")
	if err != nil {
		t.Fatal(err)
	}
	c := p.Clone()
	c.PQE.F[0][0] = cnf.PosLit(2)
	if p.PQE.F[0][0] == c.PQE.F[0][0] {
		t.Fatal("Clone shares clause storage")
	}
	p2, err := ParseBytes([]byte(dqdimacsExample), "")
	if err != nil {
		t.Fatal(err)
	}
	c2 := p2.Clone()
	c2.Formula.Matrix.Clauses[0][0] = cnf.PosLit(1)
	if p2.Formula.Matrix.Clauses[0][0] == c2.Formula.Matrix.Clauses[0][0] {
		t.Fatal("Clone shares formula storage")
	}
}

func TestValidateRejectsInconsistentProblems(t *testing.T) {
	for _, p := range []*Problem{
		{Kind: KindDQBF},
		{Kind: KindQBF},
		{Kind: KindPQE},
		{Kind: Kind(42)},
		{Kind: KindPQE, PQE: &PQESplit{NumVars: 1, X: []cnf.Var{2}}},
		{Kind: KindPQE, PQE: &PQESplit{NumVars: 2, F: []cnf.Clause{{cnf.PosLit(3)}}}},
	} {
		if err := p.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", p)
		}
	}
}

// TestAIGERHashesPinned pins the canonical hashes of AIGER inputs: the
// cache and the persistent store key entries by them, so moving the parser
// or the Tseitin encoding must leave them unchanged.
func TestAIGERHashesPinned(t *testing.T) {
	for _, tc := range []struct{ input, hash string }{
		{aagExample, "dfa1933aa9db7efdb55d4b4395d63b24700dcc0c6ebdd57294927a40f6fd1172"},
		{"aig 3 2 0 1 1\n6\n\x02\x02\ni0 a_x\no0 out\n", "dfa1933aa9db7efdb55d4b4395d63b24700dcc0c6ebdd57294927a40f6fd1172"},
		{"aag 1 1 0 2 0\n2\n1\n0\n", "2fd944a29e9a2c3793bac6cb19cb18d8b6fd777f8e48b19edf04cf93363e2610"},
		{"aag 7 3 0 2 4\n2\n4\n6\n13\n14\n8 2 4\n10 9 6\n12 11 3\n14 5 1\ni0 a_x\ni1 u_y\ni2 z\n", "754ac95c19981385f4972cae1827ac3ef75fd77aa95f8e8aaba204af221f1202"},
	} {
		p, err := ParseBytes([]byte(tc.input), FormatAIGER)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.input, err)
		}
		if got := p.CanonicalHash(); got != tc.hash {
			t.Errorf("hash of %q moved: %s, want %s", tc.input, got, tc.hash)
		}
	}
}

// TestDQDIMACSHashesPinned pins the canonical hashes of DQDIMACS and PQE
// inputs the same way: unsorted prefixes, duplicate literals and shuffled
// clauses must keep hashing to the keys the cache and store already hold.
func TestDQDIMACSHashesPinned(t *testing.T) {
	for _, tc := range []struct {
		input  string
		format Format
		hash   string
	}{
		{"p cnf 4 4\na 1 2 0\nd 3 1 0\nd 4 2 0\n-3 1 0\n3 -1 0\n-4 2 0\n4 -2 0\n", FormatDQDIMACS, "56631567995acced739953b3546050f92b3040b9a209bc235e62a08de29c84bd"},
		{"p cnf 7 5\na 2 1 0\ne 5 0\nd 4 2 1 0\nd 3 0\na 6 0\ne 7 0\n7 -3 4 4 0\n-1 5 2 0\n3 0\n6 -7 -5 -2 0\n-4 1 0\n", FormatDQDIMACS, "504f48526d035e009d817da1b258891b0a77be3c70d01208d386c2e2fc07f942"},
		{pqeExample, FormatPQE, "e4e07afce4a137a811ff1db4b4cf9486de1c976905fe4abf2059cd5cbfc6868c"},
	} {
		p, err := ParseBytes([]byte(tc.input), tc.format)
		if err != nil {
			t.Fatalf("parse %q: %v", tc.input, err)
		}
		if got := p.CanonicalHash(); got != tc.hash {
			t.Errorf("hash of %q moved: %s, want %s", tc.input, got, tc.hash)
		}
	}
}

// TestHostileHeadersBounded feeds ParseBytes tiny inputs whose headers
// declare a variable near cnf.MaxVar: each must return within a second and
// allocate less than 64 MiB, whether it is accepted or not.
func TestHostileHeadersBounded(t *testing.T) {
	cases := []struct {
		name   string
		format Format
		input  string
	}{
		{"dqdimacs variable near MaxVar", FormatDQDIMACS, "p cnf 1073741823 1\na 1073741823 0\ne 1 0\n1 1073741823 0\n"},
		{"aiger implicit inputs", FormatAIGER, "aig 1073741823 1073741823 0 0 0\n"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			done := make(chan error, 1)
			go func() {
				_, err := ParseBytes([]byte(tc.input), tc.format)
				done <- err
			}()
			select {
			case err := <-done:
				t.Logf("%d-byte input: %v", len(tc.input), err)
			case <-time.After(time.Second):
				t.Fatalf("%d-byte input still parsing after 1 s", len(tc.input))
			}
			runtime.ReadMemStats(&after)
			if alloc := after.TotalAlloc - before.TotalAlloc; alloc >= 64<<20 {
				t.Fatalf("%d-byte input allocated %d MiB", len(tc.input), alloc>>20)
			}
		})
	}
}
