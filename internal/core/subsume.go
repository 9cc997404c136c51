package core

import (
	"slices"

	"repro/internal/cnf"
)

// Subsumption and self-subsuming resolution (clause strengthening) — the
// "more sophisticated preprocessing techniques" the paper's conclusion
// names as future work. Both operate purely on the propositional matrix:
// subsumption removes clauses implied by a subset clause, and self-subsuming
// resolution removes a literal l from C∨l when some D∨¬l with D ⊆ C exists
// (the resolvent subsumes the original). Since both only replace the matrix
// by a propositionally equivalent one, they are sound for any Henkin prefix.

// clauseSig computes a Bloom-style signature of the clause's variables; a
// subset clause always has a subset signature, so sig(C) &^ sig(D) != 0
// refutes C ⊆ D cheaply.
func clauseSig(c cnf.Clause) uint64 {
	var s uint64
	for _, l := range c {
		s |= 1 << (uint(l.Var()) % 64)
	}
	return s
}

// subsumes reports whether every literal of c occurs in d.
func subsumes(c, d cnf.Clause) bool {
	if len(c) > len(d) {
		return false
	}
	for _, l := range c {
		if !d.Has(l) {
			return false
		}
	}
	return true
}

// occurrences are flat, literal-indexed occurrence lists: the clauses
// containing literal l are idx[start[l]:start[l+1]], in ascending order.
// The backing slices are reused from one build to the next.
type occurrences struct {
	start []int32
	idx   []int32
}

// build indexes cs with a count pass and a fill pass.
func (o *occurrences) build(cs []cnf.Clause) {
	maxLit, total := cnf.Lit(0), 0
	for _, c := range cs {
		for _, l := range c {
			maxLit = max(maxLit, l)
		}
		total += len(c)
	}
	o.start = scratch(o.start, int(maxLit)+2)
	for _, c := range cs {
		for _, l := range c {
			o.start[l]++
		}
	}
	// Turn counts into end offsets, then fill backwards so that each start
	// ends at its list's first entry and the lists come out ascending.
	end := int32(0)
	for l := range o.start {
		end += o.start[l]
		o.start[l] = end
	}
	o.idx = scratch(o.idx, total)
	for i := len(cs) - 1; i >= 0; i-- {
		for _, l := range cs[i] {
			o.start[l]--
			o.idx[o.start[l]] = int32(i)
		}
	}
}

// of returns the indices of the clauses containing l.
func (o *occurrences) of(l cnf.Lit) []int32 {
	if int(l)+1 >= len(o.start) {
		return nil
	}
	return o.idx[o.start[l]:o.start[l+1]]
}

// subsumeOnce removes subsumed clauses; returns the number removed. A
// clause dies when a shorter clause, or an identical earlier one, is a
// subset of it. Each clause looks for its supersets along its literal with
// the shortest occurrence list, since every superset must occur there. The
// occurrence lists and signatures are left current for strengthenOnce.
func (p *preprocessor) subsumeOnce() int {
	m := p.f.Matrix
	p.index()
	sigs := p.sigs
	dead := scratch(p.flags, len(m.Clauses))
	p.flags = dead
	removed := 0
	for i, c := range m.Clauses {
		if dead[i] || len(c) == 0 {
			continue
		}
		list := p.occ.of(c[0])
		for _, l := range c[1:] {
			if o := p.occ.of(l); len(o) < len(list) {
				list = o
			}
		}
		for _, j32 := range list {
			j := int(j32)
			if j == i || dead[j] || sigs[i]&^sigs[j] != 0 {
				continue
			}
			d := m.Clauses[j]
			if (len(c) < len(d) || (len(c) == len(d) && i < j)) && subsumes(c, d) {
				dead[j] = true
				removed++
			}
		}
	}
	if removed > 0 {
		out := m.Clauses[:0]
		for i, c := range m.Clauses {
			if !dead[i] {
				out = append(out, c)
			}
		}
		m.Clauses = out
		p.index()
	}
	return removed
}

// index rebuilds the occurrence lists and clause signatures of the matrix.
func (p *preprocessor) index() {
	cs := p.f.Matrix.Clauses
	p.occ.build(cs)
	p.sigs = scratch(p.sigs, len(cs))
	for i, c := range cs {
		p.sigs[i] = clauseSig(c)
	}
}

// scratch returns buf resized to n zero elements, reusing its storage.
func scratch[T any](buf []T, n int) []T {
	buf = slices.Grow(buf[:0], n)[:n]
	clear(buf)
	return buf
}

// strengthenOnce applies self-subsuming resolution: for clauses C∨l and
// D∨¬l with D ⊆ C, the literal l is deleted from C∨l. Returns the number of
// literals removed. Candidates D come from ¬l's occurrence list as
// subsumeOnce left it, which must run first; each is re-checked against
// its current contents.
func (p *preprocessor) strengthenOnce() int {
	m := p.f.Matrix
	removed := 0
	sigs := p.sigs
	// in marks the literals of the clause being strengthened.
	in := scratch(p.flags, len(p.occ.start))
	p.flags = in
	for i := range m.Clauses {
		c := m.Clauses[i]
		for _, l := range c {
			in[l] = true
		}
		for li := 0; li < len(c); li++ {
			l := c[li]
			nl := l.Not()
			for _, j32 := range p.occ.of(nl) {
				j := int(j32)
				if j == i {
					continue
				}
				d := m.Clauses[j]
				if len(d) > len(c) || sigs[j]&^sigs[i] != 0 {
					continue
				}
				// D \ {¬l} ⊆ C \ {l}, with ¬l still in D?
				ok, hasNeg := true, false
				for _, dl := range d {
					if dl == nl {
						hasNeg = true
						continue
					}
					if dl == l || !in[dl] {
						ok = false
						break
					}
				}
				if !ok || !hasNeg {
					continue
				}
				// Remove l from c and re-examine the literal now at li.
				c = append(c[:li], c[li+1:]...)
				m.Clauses[i] = c
				sigs[i] = clauseSig(c)
				in[l] = false
				removed++
				li--
				break
			}
		}
		if len(c) == 0 {
			p.res.Decided = true
			p.res.Value = false
			return removed
		}
		for _, l := range c {
			in[l] = false
		}
	}
	return removed
}
