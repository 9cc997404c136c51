package store

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"os"
	"strings"
	"testing"

	"repro/internal/aig"
	"repro/internal/cert"
	"repro/internal/cnf"
)

// testKey returns a syntactically valid canonical-hash key derived from b.
func testKey(b byte) string {
	const hexdigits = "0123456789abcdef"
	return strings.Repeat(string([]byte{hexdigits[b>>4&0xf], hexdigits[b&0xf]}), keyRawLen)
}

// testCert builds a small certificate with shared structure, constants, and
// complemented edges — the shapes the AAG blob has to carry.
func testCert() *cert.Certificate {
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

func testEntry(withCert bool) *Entry {
	e := &Entry{
		Key:         testKey(0xab),
		Verdict:     VerdictSat,
		Engine:      "hqs",
		Conflicts:   12345,
		Decisions:   67890,
		SolveMS:     42,
		CreatedUnix: 1754600000,
	}
	if withCert {
		e.Cert = testCert()
	}
	return e
}

// TestEntryRoundTripFixpoint is the gnark-marshal-style round-trip: decode
// of an encoding reproduces every field, and re-encoding the decoded entry
// is byte-identical to the first encoding (write→read→write fixpoint).
func TestEntryRoundTripFixpoint(t *testing.T) {
	for _, withCert := range []bool{false, true} {
		e := testEntry(withCert)
		if !withCert {
			e.Verdict = VerdictUnsat
			e.Engine = "portfolio"
		}
		b1, err := e.MarshalBinary()
		if err != nil {
			t.Fatalf("marshal (cert=%v): %v", withCert, err)
		}
		var d Entry
		if err := d.UnmarshalBinary(b1); err != nil {
			t.Fatalf("unmarshal (cert=%v): %v", withCert, err)
		}
		if d.Key != e.Key || d.Verdict != e.Verdict || d.Engine != e.Engine ||
			d.Conflicts != e.Conflicts || d.Decisions != e.Decisions ||
			d.SolveMS != e.SolveMS || d.CreatedUnix != e.CreatedUnix {
			t.Fatalf("round-trip changed fields:\n in: %+v\nout: %+v", e, d)
		}
		if withCert {
			if d.Cert == nil {
				t.Fatal("certificate lost in round-trip")
			}
			if len(d.Cert.Funcs) != len(e.Cert.Funcs) {
				t.Fatalf("certificate has %d functions, want %d", len(d.Cert.Funcs), len(e.Cert.Funcs))
			}
			// Semantic identity of every function over all 4 assignments of
			// the two inputs.
			for bits := 0; bits < 4; bits++ {
				assign := func(v cnf.Var) bool { return bits&(1<<(v-1)) != 0 }
				for y, fn := range e.Cert.Funcs {
					want := e.Cert.G.Eval(fn, assign)
					got := d.Cert.G.Eval(d.Cert.Funcs[y], assign)
					if got != want {
						t.Fatalf("function %d differs at assignment %02b: got %v want %v", y, bits, got, want)
					}
				}
			}
		} else if d.Cert != nil {
			t.Fatal("certificate materialized from nothing")
		}
		b2, err := d.MarshalBinary()
		if err != nil {
			t.Fatalf("re-marshal: %v", err)
		}
		if !bytes.Equal(b1, b2) {
			t.Fatalf("write→read→write not a fixpoint (cert=%v): %d vs %d bytes", withCert, len(b1), len(b2))
		}
	}
}

// TestEntryVersionMismatch patches the version field (and repairs the
// checksum, as a legitimate future writer would) and expects ErrVersion —
// not ErrCorrupt, and not a misdecoded entry.
func TestEntryVersionMismatch(t *testing.T) {
	b, err := testEntry(true).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	binary.LittleEndian.PutUint16(b[4:6], entryVersion+1)
	binary.LittleEndian.PutUint32(b[len(b)-4:], crc32.Checksum(b[:len(b)-4], crcTable))
	var d Entry
	if err := d.UnmarshalBinary(b); !errors.Is(err, ErrVersion) {
		t.Fatalf("future version: got %v, want ErrVersion", err)
	}
	// A version flipped by disk corruption (checksum NOT repaired) must read
	// as corruption instead.
	b2, _ := testEntry(true).MarshalBinary()
	binary.LittleEndian.PutUint16(b2[4:6], entryVersion+1)
	if err := d.UnmarshalBinary(b2); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("bit-flipped version: got %v, want ErrCorrupt", err)
	}
}

// TestEntryShortRead truncates the encoding at every length and expects a
// rejection each time — a torn write must never decode.
func TestEntryShortRead(t *testing.T) {
	b, err := testEntry(true).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for n := 0; n < len(b); n++ {
		var d Entry
		if err := d.UnmarshalBinary(b[:n]); err == nil {
			t.Fatalf("truncation to %d of %d bytes decoded successfully", n, len(b))
		}
	}
}

// TestEntryBitFlips flips every bit of the encoding one at a time; each
// flipped copy must fail to decode (almost always via the checksum; flips in
// the checksum itself via the recomputation mismatch).
func TestEntryBitFlips(t *testing.T) {
	b, err := testEntry(true).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < len(b); i++ {
		for bit := 0; bit < 8; bit++ {
			mut := append([]byte(nil), b...)
			mut[i] ^= 1 << bit
			var d Entry
			if err := d.UnmarshalBinary(mut); err == nil {
				t.Fatalf("bit flip at byte %d bit %d decoded successfully", i, bit)
			}
		}
	}
}

// TestEntryTrailingGarbage appends bytes after the checksum; the payload
// length field must catch it.
func TestEntryTrailingGarbage(t *testing.T) {
	b, err := testEntry(false).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var d Entry
	if err := d.UnmarshalBinary(append(b, 0xde, 0xad)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing garbage: got %v, want ErrCorrupt", err)
	}
}

// TestEntryMarshalRejects covers the refuse-to-write guards.
func TestEntryMarshalRejects(t *testing.T) {
	e := testEntry(false)
	e.Key = "not-a-hash"
	if _, err := e.MarshalBinary(); err == nil {
		t.Fatal("bad key marshalled")
	}
	e = testEntry(false)
	e.Verdict = 0
	if _, err := e.MarshalBinary(); err == nil {
		t.Fatal("non-definitive verdict marshalled")
	}
}

// TestEntryDecodesCommittedV1 decodes a version-1 entry with a certificate
// committed as bytes, written by an earlier build's encoder, and expects
// every field back and a byte-identical re-marshal: the format must not
// move while entryVersion stays 1.
func TestEntryDecodesCommittedV1(t *testing.T) {
	b, err := os.ReadFile("testdata/entry_v1_cert.bin")
	if err != nil {
		t.Fatal(err)
	}
	var d Entry
	if err := d.UnmarshalBinary(b); err != nil {
		t.Fatalf("committed entry rejected: %v", err)
	}
	want := testEntry(true)
	if d.Key != want.Key || d.Verdict != want.Verdict || d.Engine != want.Engine ||
		d.Conflicts != want.Conflicts || d.SolveMS != want.SolveMS || d.Cert == nil ||
		len(d.Cert.Funcs) != len(want.Cert.Funcs) {
		t.Fatalf("committed entry decoded to %+v", d)
	}
	b2, err := d.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b, b2) {
		t.Fatalf("re-marshal of the committed entry moved: %d vs %d bytes", len(b), len(b2))
	}
	if b3, _ := want.MarshalBinary(); !bytes.Equal(b, b3) {
		t.Fatal("MarshalBinary of testEntry(true) no longer matches the committed bytes")
	}
}

// withRawCert returns a checksum-valid encoding of testEntry whose
// certificate section carries vars and the raw cone bytes, as a buggy or
// hostile writer could leave on disk.
func withRawCert(t *testing.T, vars []int32, cones string) []byte {
	t.Helper()
	b, err := testEntry(false).MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	payload := append([]byte(nil), b[headerLen:len(b)-4]...)
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(vars)))
	for _, v := range vars {
		payload = binary.LittleEndian.AppendUint32(payload, uint32(v))
	}
	payload = binary.LittleEndian.AppendUint32(payload, uint32(len(cones)))
	payload = append(payload, cones...)
	out := append([]byte(nil), b[:headerLen]...)
	binary.LittleEndian.PutUint16(out[6:8], flagHasCert)
	binary.LittleEndian.PutUint32(out[8:12], uint32(len(payload)))
	out = append(out, payload...)
	return binary.LittleEndian.AppendUint32(out, crc32.Checksum(out, crcTable))
}

// hostileCones are cone sections whose AIGER body exceeds its own declared
// bounds; an unvalidated reader indexes out of range or sizes a table by M.
var hostileCones = []string{
	"aag 1 1 0 1 0\n100\n2\n",     // input literal above 2·M
	"aag 1 0 0 1 1\n2\n100 0 1\n", // AND lhs above 2·M
	"aag 100000000000 1 0 1 0\n2\n2\n",
}

// TestEntryRejectsHostileCertificate expects each hostile cone section, in
// an otherwise valid entry, to decode as ErrCorrupt rather than panic.
func TestEntryRejectsHostileCertificate(t *testing.T) {
	for _, cones := range hostileCones {
		var d Entry
		if err := d.UnmarshalBinary(withRawCert(t, []int32{2}, cones)); !errors.Is(err, ErrCorrupt) {
			t.Errorf("cones %q: got %v, want ErrCorrupt", cones, err)
		}
	}
}
