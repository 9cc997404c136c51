package aig

import (
	"cmp"
	"math"
	"math/bits"
	"slices"

	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/faults"
)

// rng is a small xorshift generator for simulation patterns; deterministic
// so that solver runs are reproducible.
type rng uint64

func (r *rng) next() uint64 {
	x := uint64(*r)
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	*r = rng(x)
	return x
}

// SweepOracle is an incremental equivalence oracle queried by one sweep.
// Implementations (internal/oracle) keep one incremental SAT solver plus
// Tseitin memo alive for the whole sweep, so each candidate check is an
// assumption query against an already-loaded solver. An oracle is NOT safe
// for concurrent use.
type SweepOracle interface {
	// ProveEquiv reports whether the functions rooted at lhs and rhs are
	// equivalent, spending at most conflictBudget conflicts per SAT query
	// (<=0 unlimited) and honoring bud. Budget exhaustion or errors yield
	// proven=false (sound: unproven pairs are simply not merged). satCalls
	// is the number of SAT queries issued (0..2). When a query refutes the
	// pair, cex is the counterexample: it returns each input variable's
	// value under an assignment where lhs and rhs differ, and is valid until
	// the oracle's next query. Otherwise cex is nil.
	ProveEquiv(lhs, rhs Ref, conflictBudget int64, bud *budget.Budget) (proven bool, satCalls int, cex func(cnf.Var) bool)
	// Footprint returns the oracle solver's current packed-arena size and
	// cumulative arena compaction count.
	Footprint() (arenaBytes int, compactions int64)
}

// SweepOraclePool supplies the SweepOracle of one sweep.
type SweepOraclePool interface {
	// Oracle returns the sweep's oracle, creating it on first use.
	Oracle() SweepOracle
	// Retire is called once a sweep's candidate checks are done. The pool
	// may drop the sweep's oracle, so the next sweep starts on a fresh one:
	// an oracle that carries earlier cones' clauses and learnts makes every
	// later query propagate over them.
	Retire()
}

// SweepStats reports what a sweep did. Every merge has one decider: the
// structural hash (Strash), a truth table (Exact) or a SAT proof, so SAT
// proved Merged − Strash − Exact of them.
type SweepStats struct {
	Candidates int // simulation-equivalent pairs tried
	Merged     int // pairs proven equivalent and merged
	Strash     int // merges found by structural hashing on the reduced graph, with no SAT call
	Exact      int // merges decided by truth table, with no SAT call (pairs of at most exactInputs inputs)
	SatCalls   int // individual SAT oracle invocations (up to two per pair)
	SimRefuted int // candidates refuted by counterexample words or a truth table, with no SAT call
	Skipped    int // sweeps skipped outright (injected fault at aig.sweep)
	Panics     int // oracle panics contained (the sweep then sends no candidate to SAT)

	// SAT substrate footprint of the sweep's oracle.
	ArenaBytes  int   // peak packed-clause-arena size
	Compactions int64 // arena garbage collections
}

// Counters flattens the stats into the generic counter map consumed by the
// pipeline's structured trace events.
func (s SweepStats) Counters() map[string]int64 {
	c := map[string]int64{
		"candidates": int64(s.Candidates),
		"merged":     int64(s.Merged),
		"strash":     int64(s.Strash),
		"exact":      int64(s.Exact),
		"satcalls":   int64(s.SatCalls),
		"simrefuted": int64(s.SimRefuted),
	}
	if s.Skipped > 0 {
		c["skipped"] = int64(s.Skipped)
	}
	if s.Panics > 0 {
		c["panics"] = int64(s.Panics)
	}
	return c
}

// Add accumulates the counters of one sweep into s (peak for ArenaBytes).
func (s *SweepStats) Add(o SweepStats) {
	s.Candidates += o.Candidates
	s.Merged += o.Merged
	s.Strash += o.Strash
	s.Exact += o.Exact
	s.SatCalls += o.SatCalls
	s.SimRefuted += o.SimRefuted
	s.Skipped += o.Skipped
	s.Panics += o.Panics
	s.Compactions += o.Compactions
	if o.ArenaBytes > s.ArenaBytes {
		s.ArenaBytes = o.ArenaBytes
	}
}

// simWords is the number of 64-bit words in a node's simulation signature:
// one chunk of the enumerator, so a cone of at most 9 inputs gets truth
// tables as signatures.
const simWords = chunkWords

// exactInputs is the largest joint support of a candidate pair the sweep
// decides by truth table (with the enumerator) before SAT. Any value up to
// 64 is sound: the enumerator covers any number of inputs.
const exactInputs = 9

// SweepOptions configures SAT sweeping.
type SweepOptions struct {
	// ConflictBudget per SAT equivalence query; on budget exhaustion the
	// pair is conservatively treated as inequivalent. <=0 means unlimited.
	ConflictBudget int64
	// Budget, when non-nil, aborts the candidate loop when stopped
	// (cancellation, deadline, caps) and is polled inside each SAT query
	// for prompt cancellation mid-query. Merges proven before the stop are
	// still applied (the result stays equivalent).
	Budget *budget.Budget
	// Oracles supplies the SAT side of the sweep: SAT-bound candidates are
	// checked with assumption queries against the pool's oracle (see
	// internal/oracle), so Tseitin encodings and learned clauses carry from
	// one candidate to the next. The oracle is fetched when the first
	// candidate reaches SAT, and the pool retires it when the sweep ends.
	// The pool is required whenever a cone has more than exactInputs
	// inputs; a smaller cone never reaches SAT.
	Oracles SweepOraclePool
}

// DefaultSweepOptions are a reasonable tradeoff for the solver loops.
func DefaultSweepOptions() SweepOptions {
	return SweepOptions{ConflictBudget: 2000}
}

// coneIndex is a dense view of the cone of one root, built once per sweep.
// Cone node i (in ascending node order) sits at position i+1, position 0 is
// the constant false, and an edge is the position shifted left by one with
// the complement in the low bit, like a Ref. Simulation and encoding then
// run over slices indexed by position.
type coneIndex struct {
	nodes  []int32    // position p ≥ 1 holds node nodes[p-1]
	vars   []cnf.Var  // per position: the input variable; 0 for an AND or the constant
	fanin  [][2]int32 // per position: an AND's two fanin edges
	inputs []int32    // input positions, by ascending variable
	pos    []int32    // node -> position, for every node up to the root
}

// indexCone builds the coneIndex of the non-constant root r. The root is
// the cone's largest node, so pos is sized to it.
func (g *Graph) indexCone(r Ref) *coneIndex {
	nodes := g.coneNodes(r)
	c := &coneIndex{
		nodes: nodes,
		vars:  make([]cnf.Var, len(nodes)+1),
		fanin: make([][2]int32, len(nodes)+1),
		pos:   make([]int32, r.node()+1),
	}
	for i, n := range nodes {
		p := int32(i + 1)
		c.pos[n] = p
		nd := &g.nodes[n]
		if nd.v != 0 {
			c.vars[p] = nd.v
			c.inputs = append(c.inputs, p)
			continue
		}
		c.fanin[p] = [2]int32{c.edge(nd.f0), c.edge(nd.f1)}
	}
	slices.SortFunc(c.inputs, func(a, b int32) int { return cmp.Compare(c.vars[a], c.vars[b]) })
	return c
}

// edge translates a graph edge into the cone into a position edge.
func (c *coneIndex) edge(e Ref) int32 { return c.pos[e.node()]<<1 | int32(e&1) }

// edgeWord reads the simulation word of a position edge.
func edgeWord(words []uint64, e int32) uint64 { return words[e>>1] ^ -uint64(e&1) }

// simulate computes every AND position of words from its fanins, given the
// input positions: bit k of words[p] becomes position p's value under the
// input assignment that bit k of the input words spells out.
func (c *coneIndex) simulate(words []uint64) {
	for p, f := range c.fanin {
		if p > 0 && c.vars[p] == 0 {
			words[p] = edgeWord(words, f[0]) & edgeWord(words, f[1])
		}
	}
}

// sweepCand is one equivalence candidate: prove lhs ≡ rhs and, if proven,
// merge rhs's node into lhs, the representative of its class. lhs/rhs are
// position edges, lhsRef/rhsRef the same edges as graph refs.
type sweepCand struct {
	lhs, rhs       int32
	lhsRef, rhsRef Ref
}

// Sweep performs FRAIG-style reduction on the cone of r: nodes with equal
// (or complementary) simulation signatures are candidates for merging, and
// the reduced cone is built while they are decided, bottom-up. The result
// is functionally equivalent to r.
//
// Each candidate pairs a node (rhs) with the representative of its
// signature class (lhs), and candidates are decided in ascending position of
// rhs. Both sides are reduced through the merges already proven below them,
// and the first of these checks that applies decides the candidate:
//  1. structural hashing: the two reduced refs are equal (SweepStats.Strash);
//  2. truth table: the pair reads at most exactInputs inputs (in a cone of
//     at most 64), so its cone simulated on all their assignments decides
//     it (SweepStats.Exact);
//  3. SAT: the oracle of opt.Oracles proves or refutes the reduced refs.
//
// A cone of at most exactInputs inputs is simulated exhaustively, so its
// signatures are truth tables: every candidate passes check 2 at once, and
// none reaches SAT. A larger cone gets pseudo-random signatures. Every refutation yields a
// counterexample, and a later candidate the counterexamples already tell
// apart is refuted without a check (SweepStats.SimRefuted).
func (g *Graph) Sweep(r Ref, opt SweepOptions) (Ref, SweepStats) {
	return g.sweep(r, opt, false)
}

// sweep is Sweep; forceSAT sends every candidate to SAT, past the
// counterexample words, hashing and truth tables, so tests can hold those
// to SAT's verdicts.
func (g *Graph) sweep(r Ref, opt SweepOptions, forceSAT bool) (Ref, SweepStats) {
	var stats SweepStats
	// Fault-injection seam: sweeping is an optimization, so a fault here is
	// contained by skipping the sweep — the unswept cone is equivalent.
	if err := opt.Budget.Faults().Fire(faults.AIGSweep); err != nil {
		stats.Skipped++
		return r, stats
	}
	if r.IsConst() {
		return r, stats
	}
	c := g.indexCone(r)
	if len(c.nodes) < 2 {
		return r, stats
	}
	expired := opt.Budget.Stopped
	cands, exact, ok := c.candidates(simWords, expired)
	if !ok || len(cands) == 0 {
		// Cancelled mid-simulation, or nothing to merge: the unswept cone
		// is equivalent.
		return r, stats
	}
	f := g.checkCandidates(c, cands, exact && !forceSAT, opt, forceSAT, expired)
	if f.stats.Merged == 0 {
		return r, f.stats
	}
	return f.reduce(r), f.stats
}

// candidates simulates the cone on words 64-bit words per input and
// returns one candidate per class member that is not its class's
// representative, in ascending position of that member (bottom-up): members
// share a signature up to complement. When the cone's k inputs have at most
// 64·words assignments, the patterns enumerate them all, in the enumerator's
// order, and exact is true: every signature is a truth table (repeated when
// k < 6), so every candidate is an equivalence. Otherwise the patterns are
// pseudo-random. It returns false if expired stops the simulation.
func (c *coneIndex) candidates(words int, expired func() bool) (cands []sweepCand, exact bool, ok bool) {
	// Signatures: W words per position, sig(p) = sigs[p*W:(p+1)*W]. Input
	// patterns are assigned over the inputs in ascending variable order, so
	// every input gets the same patterns on every run and sweeping is
	// deterministic end to end.
	W := words
	sigs := make([]uint64, len(c.fanin)*W)
	sig := func(p int32) []uint64 { return sigs[int(p)*W : int(p+1)*W] }
	exact = len(c.inputs) < 64 && 1<<len(c.inputs) <= 64*W
	seed := rng(0x2545f4914f6cdd1d)
	for w := range W {
		for j, p := range c.inputs {
			if exact {
				sig(p)[w] = patternWord(j, w)
			} else {
				sig(p)[w] = seed.next()
			}
		}
	}
	// One pass over the cone computes all W signature words per node at
	// once. Expiry is polled here too, so a huge cone cancels promptly
	// mid-simulation rather than only once the candidate checks start.
	for p := int32(1); int(p) < len(c.fanin); p++ {
		if p&255 == 0 && expired() {
			return nil, false, false
		}
		if c.vars[p] != 0 {
			continue
		}
		f := c.fanin[p]
		a, b, out := sig(f[0]>>1), sig(f[1]>>1), sig(p)
		ma, mb := -uint64(f[0]&1), -uint64(f[1]&1)
		for w := range out {
			out[w] = (a[w] ^ ma) & (b[w] ^ mb)
		}
	}

	// Group nodes by normalized signature: if word 0 has bit 0 set, use the
	// complemented signature (tracking the phase) so that complementary
	// functions land in the same class. Classes are keyed by a hash of the
	// normalized words; reps with the same hash are chained through next,
	// and a member joins the chained rep whose words equal its own.
	//
	// Each class member is merged into its representative, the class's
	// first node in topological order. A representative is never itself
	// merged away (each node sits in exactly one class), so every candidate
	// compares a node against a fixed one.
	heads := make(map[uint64]int32)     // hash -> position edge of the newest rep
	next := make([]int32, len(c.fanin)) // rep position -> edge of the previous rep with its hash; 0 ends the chain
	sameClass := func(p, q int32) bool {
		sp, sq := sig(p>>1), sig(q>>1)
		mp, mq := -uint64(p&1), -uint64(q&1)
		for w := range sp {
			if sp[w]^mp != sq[w]^mq {
				return false
			}
		}
		return true
	}
	for p := int32(1); int(p) < len(c.fanin); p++ {
		s := sig(p)
		e := p<<1 | int32(s[0]&1)
		h := uint64(0x9e3779b97f4a7c15)
		for _, w := range s {
			h = (h ^ w ^ -uint64(e&1)) * 0xff51afd7ed558ccd
			h ^= h >> 32
		}
		head := heads[h]
		rep := head
		for rep != 0 && !sameClass(rep, e) {
			rep = next[rep>>1]
		}
		if rep == 0 {
			next[p], heads[h] = head, e
			continue
		}
		cands = append(cands, sweepCand{
			lhs:    rep,
			rhs:    e,
			lhsRef: Ref(c.nodes[rep>>1-1]<<1 | rep&1),
			rhsRef: Ref(c.nodes[p-1]<<1 | e&1),
		})
	}
	return cands, exact, true
}

// unbuilt marks a position whose reduced ref is not known yet.
const unbuilt Ref = -1

// fraig holds one sweep's candidate checks: the merges proven so far, the
// reduced graph built from them, and the counterexample words.
type fraig struct {
	g   *Graph
	c   *coneIndex
	opt SweepOptions

	// repl[p] replaces the merged position p: the representative's ref in
	// p's phase. False marks "not merged" (representatives are cone nodes,
	// never constants). reduced[p] is position p's ref on the reduced graph,
	// or unbuilt.
	repl, reduced []Ref
	// hashEqual's virtual terms: virt hash-conses the gates reduction
	// would have to build, and virtTerm[p] is position p's term while
	// virtEpoch[p] equals epoch. virtNodes is the graph size they were
	// made at.
	virt      map[[2]term]term
	virtTerm  []term
	virtEpoch []int32
	epoch     int32
	virtNodes int

	// Counterexample simulation: bit k of cex[p] is position p's value
	// under counterexample k mod 64 (the newest overwrites the oldest). Once
	// the first one is simulated, every column is the simulation of a full
	// input assignment (columns not yet filled: all inputs false), so any
	// column where lhs and rhs differ refutes the pair.
	cex  []uint64
	ncex int

	// supp[p] has bit j set when position p reads the input of rank j
	// (c.inputs[j]). It is nil, and no pair is decided by truth table, in
	// a cone of more than 64 inputs or whose signatures are truth tables
	// already.
	supp []uint64
	// Truth-table scratch, reused by every pair: tt simulates the pair's
	// cone, and stack collects it.
	tt    enumerator
	stack []int32

	oracle   SweepOracle // fetched when the first candidate reaches SAT
	compact0 int64       // its compaction count at fetch
	satOff   bool        // the oracle panicked: no candidate goes to SAT any more
	stats    SweepStats
}

// checkCandidates decides cands, bottom-up, and returns the sweep's state:
// the merges it proved, with the reduced graph built so far. exact says that
// the cone's signatures are truth tables; forceSAT sends every candidate to
// SAT. A refuted candidate's counterexample is simulated over the cone as
// one bit of the cex words, and a later candidate those words already tell
// apart is refuted without a check; that skip only drops pairs SAT would
// refute too, so it changes the time of a sweep, never its merges.
//
// Candidates come bottom-up, so each SAT query finds the cone below it
// already encoded, with the clauses learned proving lower pairs equivalent.
func (g *Graph) checkCandidates(c *coneIndex, cands []sweepCand, exact bool, opt SweepOptions, forceSAT bool, expired func() bool) *fraig {
	f := &fraig{
		g:       g,
		c:       c,
		opt:     opt,
		repl:    make([]Ref, len(c.fanin)),
		reduced: make([]Ref, len(c.fanin)),
	}
	for i := range f.reduced {
		f.reduced[i] = unbuilt
	}
	if !exact {
		if opt.Oracles == nil {
			// Fail loudly, whatever the candidates: a cone past the
			// truth-table bound may need SAT.
			panic("aig: sweeping a cone of more than exactInputs inputs needs SweepOptions.Oracles")
		}
		f.cex = make([]uint64, len(c.fanin))
		if !forceSAT {
			f.virt = make(map[[2]term]term)
			f.virtTerm = make([]term, len(c.fanin))
			f.virtEpoch = make([]int32, len(c.fanin))
			f.epoch = 1
			if len(c.inputs) <= 64 {
				f.indexSupport()
			}
		}
	}
	defer f.retire()

	for i, cd := range cands {
		if i%8 == 0 && expired() {
			break
		}
		f.stats.Candidates++
		if !forceSAT {
			if f.ncex > 0 && edgeWord(f.cex, cd.lhs) != edgeWord(f.cex, cd.rhs) {
				f.stats.SimRefuted++
				continue
			}
			if exact {
				// The signatures are truth tables, and they are equal.
				f.merge(cd)
				f.stats.Exact++
				continue
			}
			if f.hashEqual(cd) {
				f.merge(cd)
				f.stats.Strash++
				continue
			}
			if eq, decided := f.truthTable(cd); decided {
				if eq {
					f.merge(cd)
					f.stats.Exact++
				} else {
					f.stats.SimRefuted++
				}
				continue
			}
		}
		if !f.satOff {
			f.prove(cd)
		}
	}
	return f
}

// merge records that cd's rhs is replaced by its representative.
func (f *fraig) merge(cd sweepCand) {
	f.repl[cd.rhs>>1] = cd.lhsRef.XorSign(cd.rhsRef.compl())
	f.stats.Merged++
}

// reduce returns e on the reduced graph, building what it lacks: every
// merged node replaced by its representative, every other node rebuilt
// over its reduced fanins.
func (f *fraig) reduce(e Ref) Ref {
	n := e.node()
	if n == 0 {
		return e
	}
	p := f.c.pos[n]
	if t := f.repl[p]; t != False {
		// The replacement itself may contain replaced nodes.
		return f.reduce(t).XorSign(e.compl())
	}
	if out := f.reduced[p]; out != unbuilt {
		return out.XorSign(e.compl())
	}
	nd := f.g.nodes[n]
	out := Ref(n << 1)
	if nd.v == 0 {
		out = f.g.And(f.reduce(nd.f0), f.reduce(nd.f1))
	}
	f.reduced[p] = out
	return out.XorSign(e.compl())
}

// A term is a reduced ref as hashEqual sees it: a graph ref, or, at or
// above virtualTerm, a gate reduction would have to build, numbered in
// virt, with the phase in the low bit like a Ref.
type term int64

const virtualTerm term = 1 << 32

// hashEqual reports whether cd's two sides reduce to the same ref. It
// builds no node: a gate the reduction would need is hash-consed as a
// virtual term instead, over its fanins' terms, with And's rules.
func (f *fraig) hashEqual(cd sweepCand) bool {
	if len(f.g.nodes) != f.virtNodes {
		// A new node may be a gate virt holds: start afresh.
		clear(f.virt)
		f.epoch++
		f.virtNodes = len(f.g.nodes)
	}
	return f.probe(cd.lhsRef) == f.probe(cd.rhsRef)
}

// probe returns e's term on the reduced graph. A gate it finds in the graph
// is memoized like reduce's; a virtual one until the graph grows.
func (f *fraig) probe(e Ref) term {
	n := e.node()
	if n == 0 {
		return term(e)
	}
	ph := term(e & 1)
	p := f.c.pos[n]
	if t := f.repl[p]; t != False {
		return f.probe(t) ^ ph
	}
	if out := f.reduced[p]; out != unbuilt {
		return term(out) ^ ph
	}
	if f.virtEpoch[p] == f.epoch {
		return f.virtTerm[p] ^ ph
	}
	nd := f.g.nodes[n]
	if nd.v != 0 {
		f.reduced[p] = Ref(n << 1)
		return term(e)
	}
	a, b := f.probe(nd.f0), f.probe(nd.f1)
	if a < virtualTerm && b < virtualTerm {
		if out, _, ok := f.g.findAnd(Ref(a), Ref(b)); ok {
			f.reduced[p] = out
			return term(out) ^ ph
		}
	}
	var out term
	switch {
	case a == term(False) || b == term(False) || a == b^1:
		out = term(False)
	case a == term(True) || a == b:
		out = b
	case b == term(True):
		out = a
	default:
		key := [2]term{min(a, b), max(a, b)}
		var ok bool
		if out, ok = f.virt[key]; !ok {
			out = virtualTerm + term(len(f.virt))<<1
			f.virt[key] = out
		}
	}
	f.virtTerm[p], f.virtEpoch[p] = out, f.epoch
	return out ^ ph
}

// indexSupport fills supp bottom-up, an input reading its own rank and an
// AND the union of its fanins' supports, and readies tt. The cone has at
// most 64 inputs.
func (f *fraig) indexSupport() {
	c := f.c
	f.supp = make([]uint64, len(c.fanin))
	f.tt = enumerator{c: c, block: make([]int32, len(c.fanin))}
	for j, p := range c.inputs {
		f.supp[p] = 1 << j
	}
	for p, fi := range c.fanin {
		if p > 0 && c.vars[p] == 0 {
			f.supp[p] = f.supp[fi[0]>>1] | f.supp[fi[1]>>1]
		}
	}
}

// truthTable decides cd when its pair reads at most exactInputs inputs: it
// simulates the pair's cone on every assignment of their joint support and
// reports whether the two functions are equal. An inequivalent pair's first
// differing assignment becomes a counterexample. decided is false when the
// pair reads more inputs, the cone more than 64, or the enumerator declines.
func (f *fraig) truthTable(cd sweepCand) (eq, decided bool) {
	if f.supp == nil {
		return false, false
	}
	// The input of rank j is the col(1<<j)-th input of the joint support.
	joint := f.supp[cd.lhs>>1] | f.supp[cd.rhs>>1]
	k := bits.OnesCount64(joint)
	if k > exactInputs {
		return false, false
	}
	col := func(bit uint64) int { return bits.OnesCount64(joint & (bit - 1)) }
	c, tt := f.c, &f.tt
	// Collect the pair's cone in ascending position; a nonzero block marks
	// a collected position until the enumerator numbers them.
	stack := append(f.stack[:0], cd.lhs>>1, cd.rhs>>1)
	sub := tt.sub[:0]
	for len(stack) > 0 {
		p := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		if tt.block[p] != 0 {
			continue
		}
		tt.block[p] = 1
		sub = append(sub, p)
		if c.vars[p] == 0 {
			stack = append(stack, c.fanin[p][0]>>1, c.fanin[p][1]>>1)
		}
	}
	slices.Sort(sub)
	f.stack, tt.sub = stack, sub
	i, differ, decided := tt.firstDiff(func(p int32) int { return col(f.supp[p]) }, k, math.MaxInt64, cd.lhs, cd.rhs)
	if differ {
		// Bit t of the assignment index sets the t-th joint input.
		f.learn(func(rank int) bool {
			bit := uint64(1) << rank
			return joint&bit != 0 && i>>col(bit)&1 == 1
		})
	}
	for _, p := range sub {
		tt.block[p] = 0
	}
	return !differ, decided
}

// learn simulates one counterexample over the cone into the cex words;
// val gives the value of the input of each rank (index into c.inputs).
func (f *fraig) learn(val func(rank int) bool) {
	bit := uint64(1) << (f.ncex & 63)
	for j, p := range f.c.inputs {
		if val(j) {
			f.cex[p] |= bit
		} else {
			f.cex[p] &^= bit
		}
	}
	f.ncex++
	f.c.simulate(f.cex)
}

// prove checks cd on the reduced graph with the sweep's oracle. Only
// positions up to cd's rhs are reduced, and every later candidate merges a
// higher one, so no reduced ref or virtual term built so far depends on
// whether cd is merged.
//
// A panic escaping the SAT query (notably an injected one) is contained
// rather than killing the sweep: the candidate stays unproven, which is
// sound because unproven pairs are simply not merged, and no later
// candidate goes to SAT, since the oracle may be left mid-query.
func (f *fraig) prove(cd sweepCand) {
	l, r := f.reduce(cd.lhsRef), f.reduce(cd.rhsRef)
	if f.oracle == nil {
		// Fetched here, outside the panic containment, so a broken pool
		// fails the sweep loudly.
		f.oracle = f.opt.Oracles.Oracle()
		_, f.compact0 = f.oracle.Footprint()
	}
	proven, calls, cex, ok := f.query(l, r)
	f.stats.SatCalls += calls
	if !ok {
		f.stats.Panics++
		f.satOff = true
		return
	}
	if cex != nil {
		f.learn(func(rank int) bool { return cex(f.c.vars[f.c.inputs[rank]]) })
	}
	if proven {
		f.merge(cd)
	}
}

// query runs one SAT check on the sweep's oracle; ok is false, and the
// other results zero, if it panicked.
func (f *fraig) query(l, r Ref) (proven bool, calls int, cex func(cnf.Var) bool, ok bool) {
	defer func() { _ = recover() }()
	proven, calls, cex = f.oracle.ProveEquiv(l, r, f.opt.ConflictBudget, f.opt.Budget)
	return proven, calls, cex, true
}

// retire records the oracle's footprint and hands it back to the pool.
func (f *fraig) retire() {
	if f.oracle == nil {
		return
	}
	ab, compactions := f.oracle.Footprint()
	f.stats.ArenaBytes = ab
	f.stats.Compactions = compactions - f.compact0
	f.opt.Oracles.Retire()
}
