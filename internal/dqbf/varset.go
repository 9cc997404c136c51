package dqbf

import (
	"math/bits"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro/internal/cnf"
)

// VarSet is a set of variables backed by a bitset, sized for fast subset and
// difference tests on dependency sets.
type VarSet struct {
	words []uint64
}

// NewVarSet returns a set containing the given variables, sized once for
// the largest of them.
func NewVarSet(vs ...cnf.Var) *VarSet {
	s := &VarSet{}
	if len(vs) > 0 {
		s.words = make([]uint64, max(0, int(slices.Max(vs))/64+1))
	}
	for _, v := range vs {
		s.Add(v)
	}
	return s
}

func (s *VarSet) ensure(v cnf.Var) {
	w := int(v) / 64
	for len(s.words) <= w {
		s.words = append(s.words, 0)
	}
}

// Add inserts v.
func (s *VarSet) Add(v cnf.Var) {
	if v <= 0 {
		panic("dqbf: invalid variable in VarSet")
	}
	s.ensure(v)
	s.words[int(v)/64] |= 1 << (uint(v) % 64)
}

// Remove deletes v.
func (s *VarSet) Remove(v cnf.Var) {
	w := int(v) / 64
	if w < len(s.words) {
		s.words[w] &^= 1 << (uint(v) % 64)
	}
}

// Has reports whether v is in the set.
func (s *VarSet) Has(v cnf.Var) bool {
	w := int(v) / 64
	return w < len(s.words) && s.words[w]&(1<<(uint(v)%64)) != 0
}

// Len returns the number of elements.
func (s *VarSet) Len() int {
	n := 0
	for _, w := range s.words {
		n += bits.OnesCount64(w)
	}
	return n
}

// Empty reports whether the set has no elements.
func (s *VarSet) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// SubsetOf reports whether s ⊆ t.
func (s *VarSet) SubsetOf(t *VarSet) bool {
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		if w&^tw != 0 {
			return false
		}
	}
	return true
}

// Equal reports whether s and t contain the same elements.
func (s *VarSet) Equal(t *VarSet) bool {
	return s.SubsetOf(t) && t.SubsetOf(s)
}

// Diff returns s \ t as a new set.
func (s *VarSet) Diff(t *VarSet) *VarSet {
	out := &VarSet{words: make([]uint64, len(s.words))}
	for i, w := range s.words {
		var tw uint64
		if i < len(t.words) {
			tw = t.words[i]
		}
		out.words[i] = w &^ tw
	}
	return out
}

// intersect returns s ∩ t as a new set.
func (s *VarSet) intersect(t *VarSet) *VarSet {
	n := len(s.words)
	if len(t.words) < n {
		n = len(t.words)
	}
	out := &VarSet{words: make([]uint64, n)}
	for i := range out.words {
		out.words[i] = s.words[i] & t.words[i]
	}
	return out
}

// Clone returns a copy of s.
func (s *VarSet) Clone() *VarSet {
	out := &VarSet{words: make([]uint64, len(s.words))}
	copy(out.words, s.words)
	return out
}

// Vars returns the elements in ascending order.
func (s *VarSet) Vars() []cnf.Var { return s.AppendVars(nil) }

// AppendVars appends the elements to dst in ascending order and returns the
// extended slice.
func (s *VarSet) AppendVars(dst []cnf.Var) []cnf.Var {
	for i, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			dst = append(dst, cnf.Var(i*64+b))
			w &^= 1 << uint(b)
		}
	}
	return dst
}

// String renders the set as {v1, v2, ...}.
func (s *VarSet) String() string {
	vs := s.Vars()
	sort.Slice(vs, func(i, j int) bool { return vs[i] < vs[j] })
	parts := make([]string, len(vs))
	for i, v := range vs {
		parts[i] = strconv.Itoa(int(v))
	}
	return "{" + strings.Join(parts, ",") + "}"
}
