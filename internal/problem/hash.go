package problem

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"hash"
	"slices"
	"sync"

	"repro/internal/cnf"
	"repro/internal/dqbf"
)

// CanonicalFormulaHash returns a hex-encoded SHA-256 digest of a canonical
// serialization of f, suitable as a result-cache key: two parses of the same
// instance hash identically even when prefix lines, clause order, or the
// literal order inside clauses differ — and, because every input format
// normalizes into the same Formula, identically across input formats too.
// The digest covers the universal set, each existential with its dependency
// set, and the matrix with duplicate literals removed and clauses sorted; it
// deliberately ignores cosmetic attributes such as the declared variable
// count. (This is the hash the service result cache and the persistent store
// have always keyed on; the bytes hashed are unchanged, so store entries
// written by earlier releases stay addressable.)
func CanonicalFormulaHash(f *dqbf.Formula) string {
	h := newHashWriter()
	h.tag("univ")
	h.vars(f.Univ)

	h.tag("exist")
	exist := slices.Clone(f.Exist)
	slices.Sort(exist)
	h.int(int64(len(exist)))
	for _, y := range exist {
		h.int(int64(y))
		// A VarSet lists its members ascending already.
		h.scratch = f.Deps[y].AppendVars(h.scratch[:0])
		h.sortedVars(h.scratch)
	}

	h.tag("matrix")
	h.clauses(f.Matrix.Clauses)
	return h.sum()
}

// CanonicalHash returns the canonical cache key of the problem. Formula
// problems hash exactly as CanonicalFormulaHash — the kind and input format
// do not participate, which is the point: the same instance ingested as
// DQDIMACS, QDIMACS, AIGER, or BENCH shares one key. PQE problems hash into
// a domain-separated space (an F/G split is a different question than the
// conjoined formula, so the keys must never collide).
func (p *Problem) CanonicalHash() string {
	if p.Kind == KindPQE {
		return p.PQE.CanonicalHash()
	}
	return CanonicalFormulaHash(p.Formula)
}

// CanonicalHash returns the canonical key of a PQE query: domain-separated
// from formula hashes, covering X (sorted) and the two clause sets
// (normalized independently — F and G are not interchangeable).
func (q *PQESplit) CanonicalHash() string {
	h := newHashWriter()
	h.tag("pqe")
	h.vars(q.X)
	h.tag("f")
	h.clauses(q.F)
	h.tag("g")
	h.clauses(q.G)
	return h.sum()
}

// hashWriter feeds the canonical form to SHA-256 through a small buffer:
// integers as 8 little-endian bytes, tags as their raw bytes. Its scratch
// slices hold variable lists and normalized clauses while they are written.
type hashWriter struct {
	h       hash.Hash
	buf     []byte
	scratch []cnf.Var
	flat    []cnf.Lit
	norm    [][]cnf.Lit
}

// hashWriters recycles hash state and scratch between digests, so hashing
// a request leaves no garbage but the digest string.
var hashWriters = sync.Pool{New: func() any {
	return &hashWriter{h: sha256.New(), buf: make([]byte, 0, 4096)}
}}

// maxPooledLits bounds the clause scratch a pooled writer keeps, so one
// huge request does not pin its buffers.
const maxPooledLits = 1 << 20

func newHashWriter() *hashWriter {
	h := hashWriters.Get().(*hashWriter)
	h.h.Reset()
	h.buf = h.buf[:0]
	return h
}

func (h *hashWriter) tag(s string) {
	h.buf = append(h.buf, s...)
	h.spill()
}

func (h *hashWriter) int(v int64) {
	h.buf = binary.LittleEndian.AppendUint64(h.buf, uint64(v))
	h.spill()
}

// spill hands a full buffer to the hash.
func (h *hashWriter) spill() {
	if len(h.buf) >= cap(h.buf)-8 {
		h.h.Write(h.buf)
		h.buf = h.buf[:0]
	}
}

// sum returns the digest and hands the writer back to the pool.
func (h *hashWriter) sum() string {
	h.h.Write(h.buf)
	digest := hex.EncodeToString(h.h.Sum(h.buf[:0]))
	if cap(h.flat) <= maxPooledLits {
		hashWriters.Put(h)
	}
	return digest
}

// vars writes a variable set: its size, then its members ascending.
func (h *hashWriter) vars(vs []cnf.Var) {
	h.scratch = append(h.scratch[:0], vs...)
	slices.Sort(h.scratch)
	h.sortedVars(h.scratch)
}

// sortedVars writes a variable set given in ascending order.
func (h *hashWriter) sortedVars(vs []cnf.Var) {
	h.int(int64(len(vs)))
	for _, v := range vs {
		h.int(int64(v))
	}
}

// clauses digests a clause set order-insensitively: literals sorted and
// deduplicated within each clause, clauses sorted lexicographically. The
// clauses are normalized inside one flat copy of their literals.
func (h *hashWriter) clauses(cs []cnf.Clause) {
	n := 0
	for _, c := range cs {
		n += len(c)
	}
	flat := slices.Grow(h.flat[:0], n)
	clauses := h.norm[:0]
	for _, c := range cs {
		start := len(flat)
		flat = append(flat, c...)
		slices.Sort(flat[start:])
		c := slices.Compact(flat[start:])
		flat = flat[:start+len(c)]
		clauses = append(clauses, c)
	}
	h.flat, h.norm = flat, clauses
	slices.SortFunc(clauses, slices.Compare)
	h.int(int64(len(clauses)))
	for _, c := range clauses {
		h.int(int64(len(c)))
		for _, l := range c {
			h.int(int64(l))
		}
	}
}
