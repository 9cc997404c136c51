package aig

import (
	"math/bits"

	"repro/internal/cnf"
)

// chunkWords is the number of 64-bit words the enumerator simulates per
// cone position at once: 512 assignments of chunkBits index bits, 64 B per
// position, the size of a default sweep signature.
const chunkWords, chunkBits = 8, 9

// basePatterns[j] is the word in which bit b equals bit j of b: the first
// six variables of every exhaustive enumeration read their values from the
// bit position within a word.
var basePatterns = [6]uint64{
	0xAAAAAAAAAAAAAAAA,
	0xCCCCCCCCCCCCCCCC,
	0xF0F0F0F0F0F0F0F0,
	0xFF00FF00FF00FF00,
	0xFFFF0000FFFF0000,
	0xFFFFFFFF00000000,
}

// patternWord is word w of the pattern of index bit j: bit b of it is bit j
// of assignment 64·w + b. The first six index bits read the bit position
// within a word, the next ones the word index.
func patternWord(j, w int) uint64 {
	if j < 6 {
		return basePatterns[j]
	}
	return -uint64(w >> (j - 6) & 1)
}

// Verdict is the answer of Exhaustive.
type Verdict uint8

const (
	Undecided Verdict = iota // over the work bound: nothing was simulated
	Valid                    // true under every assignment
	Falsified                // false under the returned assignment
)

// Exhaustive decides whether the function rooted at r is true under every
// assignment to vars, a list covering r's support. Only the k variables of
// vars that r's cone reads are enumerated, in their order in vars:
// assignment i, for i from 0 to 2^k−1, gives the j-th of them bit j of i.
//
// A Falsified verdict comes with the first falsifying assignment in counting
// order, indexed like vars; the variables the cone does not read are false
// in it. When 2^max(0,k−6)·|cone| exceeds maxWork the verdict is Undecided
// and nothing is simulated: the question is left to a decider that scales
// better.
func (g *Graph) Exhaustive(r Ref, vars []cnf.Var, maxWork int64) (Verdict, []bool) {
	c := g.indexCone(r)
	// The index bit of each cone input: its rank among them in vars.
	bitOf := make(map[cnf.Var]int, len(c.inputs))
	for _, p := range c.inputs {
		bitOf[c.vars[p]] = -1
	}
	k := 0
	for _, v := range vars {
		if b, ok := bitOf[v]; ok && b < 0 {
			bitOf[v] = k
			k++
		}
	}
	if k < len(c.inputs) {
		panic("aig: Exhaustive: vars do not cover the cone's inputs")
	}
	e := enumerator{c: c, sub: make([]int32, len(c.nodes)), block: make([]int32, len(c.fanin))}
	e.ands = make([]and, 0, len(c.nodes))
	for i := range e.sub {
		e.sub[i] = int32(i + 1)
	}
	i, differ, decided := e.firstDiff(func(p int32) int { return bitOf[c.vars[p]] }, k, maxWork, c.edge(r), c.edge(True))
	switch {
	case !decided:
		return Undecided, nil
	case !differ:
		return Valid, nil
	}
	cex := make([]bool, len(vars))
	for j, v := range vars {
		b, ok := bitOf[v]
		cex[j] = ok && i>>b&1 == 1
	}
	return Falsified, cex
}

// enumerator is the one exhaustive simulator: it finds the first assignment
// under which two position edges of a coneIndex differ. Graph.Exhaustive
// compares a root with True, the sweep's truth tables a candidate pair.
// Chunk ch simulates words ch·8 … ch·8+7 of the patterns (patternWord), 512
// assignments, so any number of index bits is enumerated exactly. Below 9
// bits the words past 2^k repeat earlier assignments, so the first
// difference still lies below 2^k.
type enumerator struct {
	c   *coneIndex
	sub []int32 // the positions to simulate, ascending and closed under fanin
	// block[p] is position p's word block, set by firstDiff to one plus its
	// index in sub. Block 0, all zero and never written, is the constant
	// false, so block[0] must stay 0.
	block []int32
	// Scratch kept across calls: a reused enumerator allocates nothing.
	ins   []input
	ands  []and
	words [][chunkWords]uint64
}

// An input is block blk, reading index bit bit; an and is block blk, the
// AND of the block edges f0 and f1 (block<<1 | complement).
type (
	input struct{ blk, bit int32 }
	and   struct{ blk, f0, f1 int32 }
)

// firstDiff simulates sub, giving the input at position p bit bit(p) of
// the assignment index, over all 2^k assignments, and returns the first one
// in counting order under which position edges x and y differ; differ is
// false when they agree under all. decided is false, and nothing is
// simulated, when 2^max(0,k−6)·len(sub) exceeds maxWork.
func (e *enumerator) firstDiff(bit func(p int32) int, k int, maxWork int64, x, y int32) (i uint64, differ, decided bool) {
	shift := max(0, k-6)
	if shift > 32 || int64(len(e.sub))<<shift > maxWork {
		return 0, false, false
	}
	if len(e.words) <= len(e.sub) {
		e.words = make([][chunkWords]uint64, len(e.sub)+1)
	}
	c, words := e.c, e.words
	ins, ands := e.ins[:0], e.ands[:0]
	for i, p := range e.sub {
		e.block[p] = int32(i + 1)
		if c.vars[p] != 0 {
			ins = append(ins, input{int32(i + 1), int32(bit(p))})
		} else {
			ands = append(ands, and{int32(i + 1), e.edge(c.fanin[p][0]), e.edge(c.fanin[p][1])})
		}
	}
	e.ins, e.ands = ins, ands
	x, y = e.edge(x), e.edge(y)
	for ch := 0; ch < 1<<max(0, k-chunkBits); ch++ {
		for _, in := range ins {
			if ch > 0 && in.bit < chunkBits {
				continue // its words repeat in every chunk
			}
			for w := range words[in.blk] {
				words[in.blk][w] = patternWord(int(in.bit), ch*chunkWords+w)
			}
		}
		for _, a := range ands {
			// The fanins are copied: out never aliases them.
			l, r, out := words[a.f0>>1], words[a.f1>>1], &words[a.blk]
			ml, mr := -uint64(a.f0&1), -uint64(a.f1&1)
			for w := range out {
				out[w] = (l[w] ^ ml) & (r[w] ^ mr)
			}
		}
		l, r := &words[x>>1], &words[y>>1]
		ml, mr := -uint64(x&1), -uint64(y&1)
		for w := range l {
			if d := l[w] ^ ml ^ r[w] ^ mr; d != 0 {
				return uint64(ch*chunkWords+w)<<6 | uint64(bits.TrailingZeros64(d)), true, true
			}
		}
	}
	return 0, false, true
}

// edge translates a position edge into a block edge.
func (e *enumerator) edge(x int32) int32 { return e.block[x>>1]<<1 | x&1 }
