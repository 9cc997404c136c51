package aig

import (
	"cmp"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

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

// SweepOracle is an incremental equivalence oracle queried by one sweep
// worker. Implementations (internal/oracle) keep one incremental SAT solver
// plus Tseitin memo alive for the whole sweep, so each candidate check is an
// assumption query against an already-loaded solver. An oracle is NOT safe
// for concurrent use; the pool hands each index to exactly one worker.
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

// SweepOraclePool supplies one SweepOracle per worker index for the
// duration of one sweep.
type SweepOraclePool interface {
	// WorkerOracle returns the oracle owned by worker i, creating it on
	// first use. A sweep fetches every worker's oracle before starting its
	// workers; the returned oracle itself is single-goroutine.
	WorkerOracle(i int) SweepOracle
	// RetireWorkers is called once a sweep's candidate checks are done.
	// The pool may drop its worker oracles, so the next sweep starts on
	// fresh ones: an oracle that carries earlier cones' clauses and learnts
	// makes every later query propagate over them.
	RetireWorkers()
}

// SweepStats reports what a sweep did.
type SweepStats struct {
	Candidates int // simulation-equivalent pairs tried
	Merged     int // pairs proven equivalent and merged
	SatCalls   int // individual SAT oracle invocations (up to two per pair)
	SimRefuted int // candidates refuted by earlier counterexamples, with no SAT call
	Exact      int // sweeps decided by truth table, with no SAT call (cones of at most exactInputs inputs)
	Workers    int // size of the worker pool actually used
	Skipped    int // sweeps skipped outright (injected fault at aig.sweep)
	Panics     int // worker panics contained (candidates left unproven)

	// SAT substrate footprint, aggregated over the workers' oracles.
	ArenaBytes  int   // peak packed-clause-arena size of any one solver
	Compactions int64 // arena garbage collections summed over the pool
}

// Counters flattens the stats into the generic counter map consumed by the
// pipeline's structured trace events.
func (s SweepStats) Counters() map[string]int64 {
	c := map[string]int64{
		"candidates": int64(s.Candidates),
		"merged":     int64(s.Merged),
		"satcalls":   int64(s.SatCalls),
		"simrefuted": int64(s.SimRefuted),
		"exact":      int64(s.Exact),
	}
	if s.Skipped > 0 {
		c["skipped"] = int64(s.Skipped)
	}
	if s.Panics > 0 {
		c["panics"] = int64(s.Panics)
	}
	return c
}

// add accumulates the counters of one sweep into s (peak for ArenaBytes).
func (s *SweepStats) Add(o SweepStats) {
	s.Candidates += o.Candidates
	s.Merged += o.Merged
	s.SatCalls += o.SatCalls
	s.SimRefuted += o.SimRefuted
	s.Exact += o.Exact
	s.Skipped += o.Skipped
	s.Panics += o.Panics
	s.Compactions += o.Compactions
	if o.ArenaBytes > s.ArenaBytes {
		s.ArenaBytes = o.ArenaBytes
	}
	if o.Workers > s.Workers {
		s.Workers = o.Workers
	}
}

// simWords is the number of 64-bit words in a node's simulation signature:
// 512 input patterns, like one chunk of Exhaustive.
const simWords = chunkWords

// exactInputs is the largest cone input count whose 2^k assignments all fit
// in a signature of simWords words. Such a cone is simulated exhaustively,
// so its signatures are truth tables.
const exactInputs = 9

// SweepOptions configures SAT sweeping.
type SweepOptions struct {
	// ConflictBudget per SAT equivalence query; on budget exhaustion the
	// pair is conservatively treated as inequivalent. <=0 means unlimited.
	ConflictBudget int64
	// Budget, when non-nil, aborts the candidate loop when stopped
	// (cancellation, deadline, caps) and is polled inside each worker's SAT
	// queries for prompt cancellation mid-query. Merges proven before the
	// stop are still applied (the result stays equivalent).
	Budget *budget.Budget
	// Workers is the size of the SAT worker pool checking candidate pairs.
	// 0 or 1 runs serially; negative values use runtime.GOMAXPROCS(0).
	// Candidate pairs are assigned to workers by static striding, so the
	// proven-equivalence set is deterministic for a fixed worker count —
	// and identical across worker counts whenever no query exhausts
	// ConflictBudget or the Budget (pair verdicts are independent of each
	// other; only budget exhaustion is history-sensitive).
	Workers int
	// Oracles supplies the SAT side of the sweep: worker i checks its
	// candidates with assumption queries against the pool's oracle i (see
	// internal/oracle), so Tseitin encodings and learned clauses carry from
	// one candidate to the next; the pool retires the oracles when the
	// sweep ends. It is required whenever a cone has more than exactInputs
	// inputs; a smaller cone never reaches SAT.
	Oracles SweepOraclePool
}

// DefaultSweepOptions are a reasonable tradeoff for the solver loops.
func DefaultSweepOptions() SweepOptions {
	return SweepOptions{ConflictBudget: 2000}
}

// poolSize resolves the Workers knob against the candidate count.
func (o SweepOptions) poolSize(candidates int) int {
	w := o.Workers
	if w < 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if w < 1 {
		w = 1
	}
	if w > candidates {
		w = candidates
	}
	return w
}

// coneIndex is a dense view of the cone of one root, built once per sweep
// and shared read-only by its workers. Cone node i (in ascending node order)
// sits at position i+1, position 0 is the constant false, and an edge is the
// position shifted left by one with the complement in the low bit, like a
// Ref. Simulation and encoding then run over slices indexed by position.
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

// candVerdict is what a sweep worker concluded about one candidate.
type candVerdict uint8

const (
	unproven   candVerdict = iota // refuted by SAT, or undecided within budget
	provenEq                      // proven equivalent: merge
	simRefuted                    // told apart by an earlier counterexample, no SAT call
)

// Sweep performs FRAIG-style reduction on the cone of r: nodes with equal
// (or complementary) simulation signatures are checked for functional
// equivalence and merged, then the cone is rebuilt. The result is
// functionally equivalent to r.
//
// A cone of at most exactInputs inputs is simulated under every assignment,
// so equal signatures are equal functions: every candidate is merged at once
// and the sweep issues no SAT call (SweepStats.Exact). A larger cone gets
// pseudo-random signatures, and its candidates are checked on opt.Workers
// oracles of opt.Oracles, one per goroutine, bottom-up. Candidates are
// independent of one another (each compares a node against the fixed
// representative of its signature class), so proven merges are applied in
// deterministic candidate order afterwards and the swept graph is
// bit-identical to the serial result whenever no query hits its budget.
func (g *Graph) Sweep(r Ref, opt SweepOptions) (Ref, SweepStats) {
	return g.sweep(r, opt, false)
}

// sweep is Sweep; forceSAT checks the candidates of a truth-table cone with
// SAT too, so tests can compare the two paths.
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
	var stop atomic.Bool
	expired := func() bool {
		if stop.Load() {
			return true
		}
		if opt.Budget.Stopped() {
			stop.Store(true)
			return true
		}
		return false
	}
	cands, exact, ok := c.candidates(simWords, expired)
	if !ok {
		// Cancelled mid-simulation: the unswept cone is equivalent.
		return r, stats
	}
	exact = exact && !forceSAT
	if exact {
		stats.Exact = 1
		stats.Candidates = len(cands)
	}
	if len(cands) == 0 {
		return r, stats
	}
	var verdicts []candVerdict
	if !exact {
		verdicts, stats = g.checkCandidates(c, cands, opt, expired)
	}

	// Merge phase: apply proven equivalences in candidate order. Because the
	// verdicts are independent, this reproduces the serial merge set exactly.
	// A merged node's replacement is its representative in the node's own
	// phase. Representatives are cone nodes, never constants, so False
	// marks "no merge".
	repl := make([]Ref, len(c.fanin))
	for i, cd := range cands {
		if exact || verdicts[i] == provenEq {
			repl[cd.rhs>>1] = cd.lhsRef.XorSign(cd.rhsRef.Compl())
			stats.Merged++
		}
	}
	if stats.Merged == 0 {
		return r, stats
	}

	// Rebuild the cone applying replacements bottom-up.
	const unbuilt Ref = -1
	rebuilt := make([]Ref, len(c.fanin))
	for i := range rebuilt {
		rebuilt[i] = unbuilt
	}
	var rebuild func(e Ref) Ref
	rebuild = func(e Ref) Ref {
		n := e.node()
		if n == 0 {
			return e
		}
		p := c.pos[n]
		if t := repl[p]; t != False {
			// The replacement target itself may contain replaced nodes.
			return rebuild(t).XorSign(e.Compl())
		}
		if out := rebuilt[p]; out != unbuilt {
			return out.XorSign(e.Compl())
		}
		nd := g.nodes[n]
		var out Ref
		if nd.v != 0 {
			out = Ref(n << 1)
		} else {
			out = g.And(rebuild(nd.f0), rebuild(nd.f1))
		}
		rebuilt[p] = out
		return out.XorSign(e.Compl())
	}
	return rebuild(r), stats
}

// candidates simulates the cone on words 64-bit words per input and
// returns one candidate per class member that is not its class's
// representative, in ascending position of that member (bottom-up): members
// share a signature up to complement. When the cone's k inputs have at most 64·words assignments,
// the patterns enumerate them all, in Exhaustive's order, and exact is true:
// every signature is a truth table (repeated when k < 6), so every candidate
// is an equivalence. Otherwise the patterns are pseudo-random. It returns
// false if expired stops the simulation.
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
	// functions land in the same bucket.
	type bucketKey string
	normSig := func(p int32) (bucketKey, int32) {
		s := sig(p)
		inv := s[0] & 1
		buf := make([]byte, 0, len(s)*8)
		for _, w := range s {
			w ^= -inv
			for i := 0; i < 8; i++ {
				buf = append(buf, byte(w>>(8*i)))
			}
		}
		return bucketKey(buf), int32(inv)
	}
	// Merge each class member into its representative, the class's first
	// node in topological order: reps maps each signature to its
	// representative's position edge. A representative is never itself
	// merged away (each node sits in exactly one class), so candidates are
	// mutually independent and can be checked in any order — or
	// concurrently.
	reps := make(map[bucketKey]int32)
	for p := int32(1); int(p) < len(c.fanin); p++ {
		key, inv := normSig(p)
		rep, seen := reps[key]
		if !seen {
			reps[key] = p<<1 | inv
			continue
		}
		cands = append(cands, sweepCand{
			lhs:    rep,
			rhs:    p<<1 | inv,
			lhsRef: Ref(c.nodes[rep>>1-1]<<1 | rep&1),
			rhsRef: Ref(c.nodes[p-1]<<1 | inv),
		})
	}
	return cands, exact, true
}

// checkCandidates decides every candidate on opt.Workers oracles of
// opt.Oracles, retires them, and returns the verdicts, indexed like cands,
// with the pool's stats (Merged left for the caller).
//
// Candidates come bottom-up, in ascending position of their merged node
// (rhs), and are checked in that order, as FRAIG construction proves
// equivalences while the graph is built: each query then finds the cone
// below it already encoded, with the clauses learned proving lower pairs
// equivalent, instead of encoding the top of the cone first. The order
// changes what each query costs, never its verdict.
//
// Every refuted candidate yields a counterexample, and each worker simulates
// its counterexamples over the cone, one per bit of a 64-bit word per
// position. A later candidate those words already tell apart is refuted
// without a SAT call. That skip only drops pairs SAT would refute too, so it
// changes the time of a sweep, never its merges.
func (g *Graph) checkCandidates(c *coneIndex, cands []sweepCand, opt SweepOptions, expired func() bool) ([]candVerdict, SweepStats) {
	var stats SweepStats
	workers := opt.poolSize(len(cands))
	stats.Workers = workers
	verdicts := make([]candVerdict, len(cands))
	// Each worker's oracle is fetched here, outside the workers' panic
	// containment, so a broken pool fails the sweep loudly instead of
	// leaving every candidate silently unproven.
	oracles := make([]SweepOracle, workers)
	for w := range oracles {
		oracles[w] = opt.Oracles.WorkerOracle(w)
	}
	defer opt.Oracles.RetireWorkers()

	// runWorker checks cands[w], cands[w+workers], ... on oracle w. Static
	// striding keeps each worker's query sequence — and therefore any
	// budget-exhaustion outcome — deterministic for a fixed pool size.
	//
	// A panic escaping a SAT query (notably an injected one) is contained
	// here rather than killing the pool: the worker's remaining candidates
	// stay unproven, which is sound because unproven pairs are simply not
	// merged. Containment must live in the worker goroutine itself — a
	// recover further up the call stack cannot catch it.
	runWorker := func(w int) (st SweepStats) {
		orc := oracles[w]
		defer func() {
			if rec := recover(); rec != nil {
				st.Panics++
			}
		}()
		_, compact0 := orc.Footprint()
		// Counterexample simulation: bit k of cex[p] is position p's value
		// under counterexample k mod 64 (the newest overwrites the oldest).
		// Once the first one is simulated, every column is the simulation of
		// a full input assignment (columns not yet filled: all inputs
		// false), so any column where lhs and rhs differ refutes the pair.
		cex := make([]uint64, len(c.fanin))
		ncex := 0
		learn := func(val func(cnf.Var) bool) {
			bit := uint64(1) << (ncex & 63)
			for _, p := range c.inputs {
				if val(c.vars[p]) {
					cex[p] |= bit
				} else {
					cex[p] &^= bit
				}
			}
			ncex++
			c.simulate(cex)
		}
		for i := w; i < len(cands); i += workers {
			if st.Candidates%8 == 0 && expired() {
				break
			}
			st.Candidates++
			cd := cands[i]
			if ncex > 0 && edgeWord(cex, cd.lhs) != edgeWord(cex, cd.rhs) {
				st.SimRefuted++
				verdicts[i] = simRefuted
				continue
			}
			ok, calls, val := orc.ProveEquiv(cd.lhsRef, cd.rhsRef, opt.ConflictBudget, opt.Budget)
			st.SatCalls += calls
			if val != nil {
				learn(val)
			}
			if ok {
				verdicts[i] = provenEq
			}
		}
		ab, compact1 := orc.Footprint()
		st.ArenaBytes = ab
		st.Compactions = compact1 - compact0
		return st
	}

	if workers == 1 {
		stats.Add(runWorker(0))
		return verdicts, stats
	}
	workerStats := make([]SweepStats, workers)
	var wg sync.WaitGroup
	wg.Add(workers)
	for w := 0; w < workers; w++ {
		go func(w int) {
			defer wg.Done()
			workerStats[w] = runWorker(w)
		}(w)
	}
	wg.Wait()
	for _, st := range workerStats {
		stats.Add(st)
	}
	return verdicts, stats
}
