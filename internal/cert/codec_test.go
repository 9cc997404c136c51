package cert_test

import (
	"bytes"
	"math/rand"
	"testing"

	"repro/internal/aig"
	"repro/internal/cert"
	"repro/internal/cnf"
	"repro/internal/dqbf"
	"repro/internal/idq"
)

// TestCodecRoundTrip encodes and decodes certificates of real SAT instances
// and asserts the decoded certificate still passes the independent checker —
// the property the cluster coordinator relies on when it ships per-cube
// certificates over the wire.
func TestCodecRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	checked := 0
	for i := 0; i < 40 && checked < 10; i++ {
		f := dqbf.RandomFormula(rng, 2, 4, 4)
		res := idq.New(idq.Options{}).Solve(f)
		if res.Status != idq.Solved || !res.Sat {
			continue
		}
		if err := cert.Check(f, res.Certificate); err != nil {
			t.Fatalf("instance %d: original certificate rejected: %v", i, err)
		}
		blob, err := cert.Encode(res.Certificate)
		if err != nil {
			t.Fatalf("instance %d: Encode: %v", i, err)
		}
		dec, err := cert.Decode(blob)
		if err != nil {
			t.Fatalf("instance %d: Decode: %v", i, err)
		}
		if len(dec.Funcs) != len(res.Certificate.Funcs) {
			t.Fatalf("instance %d: decoded %d functions, want %d", i, len(dec.Funcs), len(res.Certificate.Funcs))
		}
		if err := cert.Check(f, dec); err != nil {
			t.Fatalf("instance %d: decoded certificate rejected: %v", i, err)
		}
		// Determinism: equal certificates encode to equal bytes.
		blob2, err := cert.Encode(dec)
		if err != nil {
			t.Fatalf("instance %d: re-encode: %v", i, err)
		}
		dec2, err := cert.Decode(blob2)
		if err != nil {
			t.Fatalf("instance %d: re-decode: %v", i, err)
		}
		if err := cert.Check(f, dec2); err != nil {
			t.Fatalf("instance %d: re-decoded certificate rejected: %v", i, err)
		}
		checked++
	}
	if checked == 0 {
		t.Fatal("no satisfiable instance produced a certificate to round-trip")
	}
}

// sharedCert is a small certificate with shared structure, constants and
// complemented edges.
func sharedCert() *cert.Certificate {
	g := aig.New()
	x1, x2 := g.Input(1), g.Input(2)
	shared := g.And(x1, x2)
	return &cert.Certificate{G: g, Funcs: map[cnf.Var]aig.Ref{
		5: shared,
		6: g.Or(shared, x1.Not()),
		7: x2.Not(),
		8: aig.False,
		9: aig.True,
	}}
}

// encodedV1 is the version-1 encoding of sharedCert. Workers and
// coordinators of different builds exchange this form, so it must not move.
const encodedV1 = `skolem 1 5 5 6 7 8 9
aag 4 2 0 5 2
2
4
6
9
5
0
1
6 2 4
8 2 7
i0 v1
i1 v2
c
written by repro/internal/aig
`

// TestEncodeBytesPinned holds Encode to the committed version-1 bytes and
// checks that decoding them and encoding again reproduces them.
func TestEncodeBytesPinned(t *testing.T) {
	blob, err := cert.Encode(sharedCert())
	if err != nil {
		t.Fatal(err)
	}
	if string(blob) != encodedV1 {
		t.Fatalf("Encode moved:\n got %q\nwant %q", blob, encodedV1)
	}
	dec, err := cert.Decode([]byte(encodedV1))
	if err != nil {
		t.Fatal(err)
	}
	again, err := cert.Encode(dec)
	if err != nil {
		t.Fatal(err)
	}
	if string(again) != encodedV1 {
		t.Fatalf("decode→encode moved:\n got %q\nwant %q", again, encodedV1)
	}
}

// TestDecodeRejectsGarbage pins the failure modes: bad header, bad version,
// truncated blobs, cone/variable count mismatches, and AIGER bodies whose
// literals or header counts exceed their declared bounds must error, not
// panic or exhaust memory.
func TestDecodeRejectsGarbage(t *testing.T) {
	for _, bad := range []string{
		"",
		"skolem\n",
		"skolem 1\n",
		"skolem 2 0\naag 0 0 0 0 0\n",
		"skolem 1 2 3\naag 0 0 0 0 0\n",
		"skolem 1 1 3 4\naag 0 0 0 1 0\n0\n",
		"skolem 1 -1\n",
		"skolem 1 1 0\naag 0 0 0 1 0\n0\n",
		"skolem 1 0 not-an-aag\n",
		"skolem 1 1 4294967297\naag 0 0 0 1 0\n0\n",
		"skolem 1 1 2000000000\naag 0 0 0 1 0\n0\n",
		"skolem 1 1 2\naag 1 1 0 1 0\n100\n2\n",     // input literal above 2·M
		"skolem 1 1 2\naag 1 0 0 1 1\n2\n100 0 1\n", // AND lhs above 2·M
		"skolem 1 1 2\naag 100000000000 1 0 1 0\n2\n2\n",
		"skolem 1 1 2\naag 3 1 0 1 2\n2\n4\n4 6 2\n6 2 2\n", // AND input used before its definition
		"skolem 1 1 2\naig 1 1 0 1 0\n2\n",                  // binary flavor
	} {
		if _, err := cert.Decode([]byte(bad)); err == nil {
			t.Errorf("Decode(%q) accepted garbage", bad)
		}
	}
}

// FuzzCertDecode drives the certificate wire decoder with arbitrary bytes.
// The invariants: Decode never panics; an accepted blob re-encodes to a
// fixpoint under Encode→Decode→Encode; and Check on an accepted certificate
// returns rather than panics.
func FuzzCertDecode(f *testing.F) {
	f.Add([]byte(encodedV1))
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 20; i++ {
		fm := dqbf.RandomFormula(rng, 2, 3, 4)
		if res := idq.New(idq.Options{}).Solve(fm); res.Sat {
			blob, err := cert.Encode(res.Certificate)
			if err != nil {
				f.Fatal(err)
			}
			f.Add(blob)
		}
	}
	for _, crash := range []string{
		"skolem 1 1 2\naag 1 1 0 1 0\n100\n2\n",
		"skolem 1 1 2\naag 1 0 0 1 1\n2\n100 0 1\n",
		"skolem 1 1 2\naag 100000000000 1 0 1 0\n2\n2\n",
	} {
		f.Add([]byte(crash))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		c, err := cert.Decode(data)
		if err != nil {
			return
		}
		b1, err := cert.Encode(c)
		if err != nil {
			t.Fatalf("Encode of an accepted certificate: %v", err)
		}
		c2, err := cert.Decode(b1)
		if err != nil {
			t.Fatalf("re-encoded certificate rejected: %v\n%q", err, b1)
		}
		b2, err := cert.Encode(c2)
		if err != nil {
			t.Fatalf("second Encode: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("Encode→Decode→Encode not a fixpoint:\nfirst:  %q\nsecond: %q", b1, b2)
		}
		// A formula the certificate could claim to witness: its functions'
		// inputs universal, its variables existential over all of them, each
		// constrained true. dqbf.VarSet is a bitset sized by its largest
		// member, so inputs naming huge variables skip the check.
		inputs := make(map[cnf.Var]bool)
		for _, fn := range c.Funcs {
			for v := range c.G.Support(fn) {
				inputs[v] = true
			}
		}
		fm := dqbf.New()
		var univ []cnf.Var
		for v := range inputs {
			if v > 1<<16 {
				return
			}
			if _, certified := c.Funcs[v]; !certified {
				fm.AddUniversal(v)
				univ = append(univ, v)
			}
		}
		for y := range c.Funcs {
			if y > 1<<16 {
				return
			}
			fm.AddExistential(y, univ...)
			fm.Matrix.AddClause(cnf.PosLit(y))
		}
		_ = cert.Check(fm, c)
	})
}
