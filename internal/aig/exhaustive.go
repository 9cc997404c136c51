package aig

import (
	"fmt"
	"math/bits"

	"repro/internal/cnf"
)

// chunkWords is the number of 64-bit words Exhaustive simulates per cone
// position at once: 512 assignments, 64 B per position, the size of a
// default sweep signature.
const chunkWords = 8

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
// The cone is simulated over these assignments 512 at a time, eight words
// per cone node.
//
// A Falsified verdict comes with the first falsifying assignment in counting
// order, indexed like vars; the variables the cone does not read are false
// in it. When 2^max(0,k−6)·|cone| exceeds maxWork the verdict is Undecided
// and nothing is simulated: the question is left to a decider that scales
// better.
func (g *Graph) Exhaustive(r Ref, vars []cnf.Var, maxWork int64) (Verdict, []bool) {
	c := g.indexCone(r)
	k := len(c.inputs)
	shift := max(0, k-6)
	if shift > 32 || int64(len(c.nodes))<<shift > maxWork {
		return Undecided, nil
	}
	// The index bit each cone input reads, numbered in the order of vars;
	// varBit[j] is the bit of vars[j], or -1 when the cone does not read it.
	bitOf := make(map[cnf.Var]int, k)
	for _, p := range c.inputs {
		bitOf[c.vars[p]] = -1
	}
	varBit := make([]int, len(vars))
	next := 0
	for j, v := range vars {
		b, ok := bitOf[v]
		if !ok {
			varBit[j] = -1
			continue
		}
		if b < 0 {
			b, bitOf[v] = next, next
			next++
		}
		varBit[j] = b
	}
	inputCol := make([]int, len(c.inputs))
	for i, p := range c.inputs {
		if inputCol[i] = bitOf[c.vars[p]]; inputCol[i] < 0 {
			panic(fmt.Sprintf("aig: Exhaustive: cone input %d is not in vars", c.vars[p]))
		}
	}

	// Word w of chunk ch holds assignments (ch·8+w)·64 + b for bit b, so the
	// first six variables read b, the next three w, and the rest ch. Below
	// k = 9 all eight words of the single chunk are simulated anyway; the
	// words past 2^k repeat earlier assignments, since no variable reads
	// their index bits, so the first falsifying bit still lies below 2^k.
	words := make([][chunkWords]uint64, len(c.fanin))
	for i, p := range c.inputs {
		if j := inputCol[i]; j < 9 {
			for w := range words[p] {
				words[p][w] = patternWord(j, w)
			}
		}
	}
	// The AND positions with their fanin edges, flattened so that the chunk
	// loop reads one slice and skips no input positions.
	type and struct{ p, f0, f1 int32 }
	var ands []and
	for p := 1; p < len(c.fanin); p++ {
		if c.vars[p] == 0 {
			ands = append(ands, and{int32(p), c.fanin[p][0], c.fanin[p][1]})
		}
	}
	chunks := uint64(1) << max(0, k-9)
	root := c.edge(r)
	for ch := uint64(0); ch < chunks; ch++ {
		for i, p := range c.inputs {
			if j := inputCol[i]; j >= 9 {
				fill := -(ch >> (j - 9) & 1)
				for w := range words[p] {
					words[p][w] = fill
				}
			}
		}
		for _, a := range ands {
			x, y := words[a.f0>>1], words[a.f1>>1]
			ma, mb := -uint64(a.f0&1), -uint64(a.f1&1)
			out := &words[a.p]
			for w := range out {
				out[w] = (x[w] ^ ma) & (y[w] ^ mb)
			}
		}
		rw, mr := &words[root>>1], -uint64(root&1)
		for w := range rw {
			if miss := ^(rw[w] ^ mr); miss != 0 {
				i := (ch*chunkWords+uint64(w))<<6 | uint64(bits.TrailingZeros64(miss))
				cex := make([]bool, len(vars))
				for j, b := range varBit {
					cex[j] = b >= 0 && i>>b&1 == 1
				}
				return Falsified, cex
			}
		}
	}
	return Valid, nil
}
