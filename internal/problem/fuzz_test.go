package problem

import "testing"

// FuzzAIGERReader drives AIGER ingestion (both flavors) with arbitrary
// bytes: the shared parser in internal/aig, whose own harness checks the
// read/write fixpoint, followed by this package's Tseitin encoding. The
// invariants: ingestion never panics, and an accepted circuit encodes to a
// problem that passes Validate and has a canonical hash.
func FuzzAIGERReader(f *testing.F) {
	seeds := [][]byte{
		[]byte("aag 3 2 0 1 1\n2\n4\n6\n6 4 2\ni0 a_x\no0 out\n"),
		[]byte("aig 3 2 0 1 1\n6\n\x02\x02\ni0 a_x\no0 out\n"),
		[]byte("aag 0 0 0 0 0\n"),
		[]byte("aag 1 1 0 2 0\n2\n1\n0\n"),
		[]byte("aag 5 2 0 1 3\n2\n4\n10\n6 2 4\n8 3 5\n10 7 9\nc\nfree-form comment\n"),
		[]byte("agg 1 1 0 0 0\n2\n"),
		[]byte("aig 2 1 0 0 1\n\xff\xff\xff\xff\xff\xff\x01\x00"),
		[]byte("aig 1073741823 1073741823 0 0 0"),
	}
	for _, s := range seeds {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		p, err := ParseBytes(data, FormatAIGER)
		if err != nil {
			return // rejected cleanly
		}
		if err := p.Validate(); err != nil {
			t.Fatalf("encoded problem fails validation: %v\ninput: %q", err, data)
		}
		if p.CanonicalHash() == "" {
			t.Fatal("empty canonical hash")
		}
	})
}
