// Package sat implements a CDCL (conflict-driven clause learning) SAT solver.
//
// The solver follows the architecture of MiniSat-style solvers: two-literal
// watching for unit propagation, VSIDS variable activities with a binary heap,
// first-UIP conflict analysis with recursive clause minimization, phase
// saving, Luby-sequence restarts, and LBD/activity-based learned-clause
// deletion. It supports incremental solving under assumptions, extraction
// of the subset of assumptions responsible for unsatisfiability, and solves
// confined to a scope of variables (SolveWithin).
//
// Clause storage is a packed arena (see arena.go): all clauses live in one
// flat slab of 32-bit words and are referenced by offsets, which keeps the
// propagation hot path free of pointer chasing and per-clause allocations.
// Space freed by clause-database reduction is reclaimed by a compacting
// garbage collector.
//
// It is the oracle for every higher layer in this repository: the partial
// MaxSAT solver, SAT sweeping on AIGs, the final SAT checks of the QBF and
// DQBF solvers, and the instantiation-based iDQ baseline.
package sat

import (
	"errors"
	"sort"

	"repro/internal/budget"
	"repro/internal/cnf"
	"repro/internal/faults"
)

// Status is the result of a Solve call.
type Status int

const (
	// Unknown means the solver stopped before reaching a verdict (budget).
	Unknown Status = iota
	// Sat means a satisfying assignment was found.
	Sat
	// Unsat means the formula (under the given assumptions) is unsatisfiable.
	Unsat
)

func (s Status) String() string {
	switch s {
	case Sat:
		return "SAT"
	case Unsat:
		return "UNSAT"
	default:
		return "UNKNOWN"
	}
}

// ErrBudget is returned by SolveErr when the conflict or propagation budget
// is exhausted before a verdict is reached.
var ErrBudget = errors.New("sat: budget exhausted")

type lbool int8

const (
	lUndef lbool = 0
	lTrue  lbool = 1
	lFalse lbool = -1
)

// watcher references a clause watching some literal; blocker is a literal of
// the clause that, when true, lets propagation skip the clause entirely.
type watcher struct {
	cref    cref
	blocker cnf.Lit
}

// Solver is a CDCL SAT solver. The zero value is not usable; use New.
type Solver struct {
	ca arena // packed clause storage (problem + learned)

	watches [][]watcher // indexed by int(lit)

	assign   []lbool   // indexed by var
	level    []int     // decision level per var
	reason   []cref    // antecedent clause per var, crefUndef if decision/none
	polarity []bool    // saved phase per var (true = last assigned true)
	pinned   []bool    // frozen phase per var: phase saving skips these
	activity []float64 // VSIDS activity per var

	trail    []cnf.Lit
	trailLim []int // decision-level boundaries in trail
	qhead    int

	heap       varHeap
	varInc     float64
	varDec     float64
	claInc     float32
	claDec     float32
	seen       []byte
	toClear    []cnf.Var
	lbdStamp   []uint32 // per decision level: the computeLBD call that last saw it
	lbdEpoch   uint32
	numVars    int
	numLearnts int
	numProblem int

	ok bool // false once a top-level conflict is derived

	assumptions []cnf.Lit
	conflictSet []cnf.Lit // failed assumptions after Unsat-under-assumptions

	// The scope of a SolveWithin call: while scoped, decisions come from
	// scopeHeap and propagation above level 0 assigns only inScope vars.
	scoped    bool
	inScope   []bool // indexed by var
	scopeHeap varHeap

	model cnf.Assignment

	// ConflictBudget caps the conflicts of one solve; <= 0 means unlimited.
	ConflictBudget int64

	// Budget, when non-nil, is a shared cancellable budget polled inside the
	// search loop: the solve returns Unknown (with the budget's error from
	// SolveErr) promptly after cancellation, deadline expiry, or cap
	// exhaustion. Conflicts and decisions are metered into the budget. The
	// solver stays reusable after a budgeted stop.
	Budget *budget.Budget

	// KeepLearnts, when > 0, raises the floor of the learned-clause database
	// size before reduceDB kicks in (default 100). Incremental consumers
	// (internal/oracle) raise it so learned clauses survive across the many
	// small queries of a sweep instead of being evicted between them.
	KeepLearnts int

	budgetPoll uint32 // search-loop iterations since the last budget check

	// Statistics.
	Stats Stats

	rngState uint64
}

// Stats collects solver counters.
type Stats struct {
	Decisions    int64
	Propagations int64
	Conflicts    int64
	Restarts     int64
	Learned      int64
	Removed      int64
	Compactions  int64 // arena garbage collections
	SolveCalls   int64 // Solve/SolveAssuming invocations on this instance
}

// New returns an empty solver.
func New() *Solver {
	s := &Solver{
		varInc:   1,
		varDec:   0.95,
		claInc:   1,
		claDec:   0.999,
		ok:       true,
		rngState: 0x9e3779b97f4a7c15,
	}
	// Variable 0 is unused; keep slot for dense indexing.
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.polarity = append(s.polarity, false)
	s.pinned = append(s.pinned, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, 0)
	s.inScope = append(s.inScope, false)
	s.watches = append(s.watches, nil, nil)
	return s
}

// NumVars returns the number of allocated variables.
func (s *Solver) NumVars() int { return s.numVars }

// NumLearnts returns the number of learned clauses currently in the database.
func (s *Solver) NumLearnts() int { return s.numLearnts }

// ArenaBytes returns the current size of the packed clause arena in bytes.
func (s *Solver) ArenaBytes() int { return s.ca.words() * 4 }

// SetPhase freezes the decision phase of v: pickBranchLit will always try v
// with polarity pol first, and phase saving no longer overwrites it. Used by
// incremental consumers to pin activation literals of retired scopes to
// false so they never pollute branching.
func (s *Solver) SetPhase(v cnf.Var, pol bool) {
	s.EnsureVars(int(v))
	s.polarity[v] = pol
	s.pinned[v] = true
}

// NewVar allocates a fresh variable and returns it.
func (s *Solver) NewVar() cnf.Var {
	s.numVars++
	v := cnf.Var(s.numVars)
	s.assign = append(s.assign, lUndef)
	s.level = append(s.level, 0)
	s.reason = append(s.reason, crefUndef)
	s.polarity = append(s.polarity, false)
	s.pinned = append(s.pinned, false)
	s.activity = append(s.activity, 0)
	s.seen = append(s.seen, 0)
	s.inScope = append(s.inScope, false)
	s.watches = append(s.watches, nil, nil)
	s.heap.insert(v, s.activity)
	return v
}

// EnsureVars allocates variables up to and including n.
func (s *Solver) EnsureVars(n int) {
	for s.numVars < n {
		s.NewVar()
	}
}

func (s *Solver) value(l cnf.Lit) lbool {
	a := s.assign[l.Var()]
	if a == lUndef {
		return lUndef
	}
	if l.Neg() {
		return -a
	}
	return a
}

// AddClause adds a clause. It returns false if the solver is already in an
// unsatisfiable state (now or before). Adding at decision level 0 only.
func (s *Solver) AddClause(lits ...cnf.Lit) bool {
	if !s.ok {
		return false
	}
	if s.decisionLevel() != 0 {
		panic("sat: AddClause above decision level 0")
	}
	c := make(cnf.Clause, len(lits))
	copy(c, lits)
	cl, taut := c.Normalize()
	if taut {
		return true
	}
	// Remove false literals, detect satisfied clause.
	out := cl[:0]
	for _, l := range cl {
		if int(l.Var()) > s.numVars {
			s.EnsureVars(int(l.Var()))
		}
		switch s.value(l) {
		case lTrue:
			return true
		case lUndef:
			out = append(out, l)
		}
	}
	switch len(out) {
	case 0:
		s.ok = false
		return false
	case 1:
		s.uncheckedEnqueue(out[0], crefUndef)
		if s.propagate() != crefUndef {
			s.ok = false
			return false
		}
		return true
	}
	s.attachClause(out, false)
	s.numProblem++
	return true
}

// attachClause allocates a clause in the arena and registers its watchers.
func (s *Solver) attachClause(lits []cnf.Lit, learnt bool) cref {
	if len(lits) < 2 {
		panic("sat: attaching short clause")
	}
	c := s.ca.alloc(lits, learnt)
	l0, l1 := lits[0], lits[1]
	s.watches[l0.Not()] = append(s.watches[l0.Not()], watcher{c, l1})
	s.watches[l1.Not()] = append(s.watches[l1.Not()], watcher{c, l0})
	return c
}

func (s *Solver) decisionLevel() int { return len(s.trailLim) }

func (s *Solver) uncheckedEnqueue(l cnf.Lit, from cref) {
	v := l.Var()
	if l.Neg() {
		s.assign[v] = lFalse
	} else {
		s.assign[v] = lTrue
	}
	if !s.pinned[v] {
		s.polarity[v] = !l.Neg()
	}
	s.level[v] = s.decisionLevel()
	s.reason[v] = from
	s.trail = append(s.trail, l)
}

// propagate performs unit propagation; returns the cref of a conflicting
// clause or crefUndef.
func (s *Solver) propagate() cref {
	for s.qhead < len(s.trail) {
		l := s.trail[s.qhead]
		s.qhead++
		s.Stats.Propagations++
		ws := s.watches[l]
		// Only the watchers present when the scan starts are visited; anything
		// appended to s.watches[l] during the scan (a same-literal re-watch)
		// lands past n and is preserved by the tail copy below.
		n := len(ws)
		j := 0
	nextWatcher:
		for i := 0; i < n; i++ {
			w := ws[i]
			if s.value(w.blocker) == lTrue {
				ws[j] = w
				j++
				continue
			}
			lits := s.ca.lits(w.cref)
			// Make sure the false literal (¬l) is lits[1].
			nl := l.Not()
			if lits[0] == nl {
				lits[0], lits[1] = lits[1], lits[0]
			}
			first := lits[0]
			if first != w.blocker && s.value(first) == lTrue {
				ws[j] = watcher{w.cref, first}
				j++
				continue
			}
			// Look for a new literal to watch.
			for k := 2; k < len(lits); k++ {
				if s.value(lits[k]) != lFalse {
					lits[1], lits[k] = lits[k], lits[1]
					wl := lits[1].Not()
					s.watches[wl] = append(s.watches[wl], watcher{w.cref, first})
					if wl == l {
						// The append aliased the slice being scanned and may
						// have grown or moved it; re-read so the copy-back
						// below does not drop the new watcher (regression
						// test: TestPropagateSelfAppendRewatch).
						ws = s.watches[l]
					}
					continue nextWatcher
				}
			}
			// Clause is unit or conflicting.
			ws[j] = watcher{w.cref, first}
			j++
			if s.value(first) == lFalse {
				// Conflict: copy remaining watchers and bail out.
				for i++; i < n; i++ {
					ws[j] = ws[i]
					j++
				}
				j += copy(ws[j:], ws[n:])
				s.watches[l] = ws[:j]
				s.qhead = len(s.trail)
				return w.cref
			}
			if s.scoped && !s.inScope[first.Var()] && s.decisionLevel() > 0 {
				continue // stays watched on a false literal until backtracking
			}
			s.uncheckedEnqueue(first, w.cref)
		}
		// Keep watchers appended during the scan.
		j += copy(ws[j:], ws[n:])
		s.watches[l] = ws[:j]
	}
	return crefUndef
}

func (s *Solver) cancelUntil(lvl int) {
	if s.decisionLevel() <= lvl {
		return
	}
	bound := s.trailLim[lvl]
	for i := len(s.trail) - 1; i >= bound; i-- {
		v := s.trail[i].Var()
		s.assign[v] = lUndef
		s.reason[v] = crefUndef
		if !s.heap.contains(v) {
			s.heap.insert(v, s.activity)
		}
		if s.scoped && s.inScope[v] {
			s.scopeHeap.insert(v, s.activity)
		}
	}
	s.trail = s.trail[:bound]
	s.trailLim = s.trailLim[:lvl]
	s.qhead = len(s.trail)
}

func (s *Solver) bumpVar(v cnf.Var) {
	s.activity[v] += s.varInc
	if s.activity[v] > 1e100 {
		for i := range s.activity {
			s.activity[i] *= 1e-100
		}
		s.varInc *= 1e-100
	}
	s.heap.update(v, s.activity)
	if s.scoped {
		s.scopeHeap.update(v, s.activity)
	}
}

func (s *Solver) bumpClause(c cref) {
	act := s.ca.activity(c) + s.claInc
	s.ca.setActivity(c, act)
	if act > 1e20 {
		for d := cref(0); int(d) < s.ca.words(); d = s.ca.next(d) {
			if s.ca.learnt(d) && !s.ca.deleted(d) {
				s.ca.setActivity(d, s.ca.activity(d)*1e-20)
			}
		}
		s.claInc *= 1e-20
	}
}

// analyze performs first-UIP conflict analysis. It returns the learned clause
// (with the asserting literal first) and the backtrack level.
func (s *Solver) analyze(confl cref) ([]cnf.Lit, int) {
	learnt := []cnf.Lit{0} // slot 0 for the asserting literal
	counter := 0
	var p cnf.Lit
	idx := len(s.trail) - 1
	first := true

	for {
		if s.ca.learnt(confl) {
			s.bumpClause(confl)
		}
		lits := s.ca.lits(confl)
		start := 0
		if !first {
			start = 1
		}
		for _, q := range lits[start:] {
			v := q.Var()
			if s.seen[v] == 0 && s.level[v] > 0 {
				s.seen[v] = 1
				s.bumpVar(v)
				if s.level[v] >= s.decisionLevel() {
					counter++
				} else {
					learnt = append(learnt, q)
				}
			}
		}
		first = false
		// Find next literal on the trail to expand.
		for s.seen[s.trail[idx].Var()] == 0 {
			idx--
		}
		p = s.trail[idx]
		idx--
		s.seen[p.Var()] = 0
		counter--
		if counter == 0 {
			break
		}
		confl = s.reason[p.Var()]
	}
	learnt[0] = p.Not()

	// Clause minimization: remove literals implied by the rest.
	s.toClear = s.toClear[:0]
	for _, l := range learnt {
		s.seen[l.Var()] = 1
		s.toClear = append(s.toClear, l.Var())
	}
	j := 1
	for i := 1; i < len(learnt); i++ {
		v := learnt[i].Var()
		if s.reason[v] == crefUndef || !s.litRedundant(learnt[i]) {
			learnt[j] = learnt[i]
			j++
		}
	}
	learnt = learnt[:j]
	for _, v := range s.toClear {
		s.seen[v] = 0
	}

	// Compute backtrack level: second-highest level in the clause.
	btLevel := 0
	if len(learnt) > 1 {
		maxI := 1
		for i := 2; i < len(learnt); i++ {
			if s.level[learnt[i].Var()] > s.level[learnt[maxI].Var()] {
				maxI = i
			}
		}
		learnt[1], learnt[maxI] = learnt[maxI], learnt[1]
		btLevel = s.level[learnt[1].Var()]
	}
	return learnt, btLevel
}

// litRedundant reports whether l is implied by the other marked literals,
// following reasons recursively (with an explicit stack). Variables marked
// during a successful check stay marked (they are redundant too) and are
// recorded in s.toClear for the caller to reset.
func (s *Solver) litRedundant(l cnf.Lit) bool {
	type frame struct {
		cref cref
		i    int
	}
	var stack []frame
	newlyMarked := len(s.toClear)
	stack = append(stack, frame{s.reason[l.Var()], 1})
	for len(stack) > 0 {
		f := &stack[len(stack)-1]
		lits := s.ca.lits(f.cref)
		if f.i >= len(lits) {
			stack = stack[:len(stack)-1]
			continue
		}
		q := lits[f.i]
		f.i++
		v := q.Var()
		if s.level[v] == 0 || s.seen[v] == 1 {
			continue
		}
		if s.reason[v] == crefUndef {
			for _, u := range s.toClear[newlyMarked:] {
				s.seen[u] = 0
			}
			s.toClear = s.toClear[:newlyMarked]
			return false
		}
		s.seen[v] = 1
		s.toClear = append(s.toClear, v)
		stack = append(stack, frame{s.reason[v], 1})
	}
	return true
}

// computeLBD returns the literal block distance of lits: the number of
// distinct decision levels among them. Each call stamps the levels it sees
// with a fresh epoch, so no set is allocated per learned clause.
func (s *Solver) computeLBD(lits []cnf.Lit) int {
	s.lbdEpoch++
	if s.lbdEpoch == 0 {
		clear(s.lbdStamp)
		s.lbdEpoch = 1
	}
	n := 0
	for _, l := range lits {
		lv := s.level[l.Var()]
		if lv >= len(s.lbdStamp) {
			s.lbdStamp = append(s.lbdStamp, make([]uint32, lv+1-len(s.lbdStamp))...)
		}
		if s.lbdStamp[lv] != s.lbdEpoch {
			s.lbdStamp[lv] = s.lbdEpoch
			n++
		}
	}
	return n
}

func (s *Solver) pickBranchLit() (cnf.Lit, bool) {
	h := &s.heap
	if s.scoped {
		h = &s.scopeHeap
	}
	for !h.empty() {
		v := h.removeTop(s.activity)
		if s.assign[v] == lUndef {
			return cnf.NewLit(v, !s.polarity[v]), true
		}
	}
	return 0, false
}

// reduceDB removes roughly half of the learned clauses, keeping low-LBD and
// high-activity ones, then compacts the arena when enough space is dead.
func (s *Solver) reduceDB() {
	var learnts []cref
	for c := cref(0); int(c) < s.ca.words(); c = s.ca.next(c) {
		if s.ca.learnt(c) && !s.ca.deleted(c) {
			learnts = append(learnts, c)
		}
	}
	// Sort by (lbd, -activity): keep the glue clauses.
	sort.Slice(learnts, func(i, j int) bool {
		a, b := learnts[i], learnts[j]
		if la, lb := s.ca.lbd(a), s.ca.lbd(b); la != lb {
			return la < lb
		}
		return s.ca.activity(a) > s.ca.activity(b)
	})
	for _, c := range learnts[len(learnts)/2:] {
		if s.ca.lbd(c) <= 2 || s.isReason(c) {
			continue
		}
		s.detachClause(c)
		s.Stats.Removed++
	}
	// Compact once a fifth of the slab is dead.
	if s.ca.wasted*5 >= s.ca.words() {
		s.garbageCollect()
	}
}

// garbageCollect compacts the arena: live clauses move to a fresh slab and
// every cref in the watcher lists and reason array is relocated.
func (s *Solver) garbageCollect() {
	to := arena{data: make([]cnf.Lit, 0, s.ca.words()-s.ca.wasted)}
	for i := range s.watches {
		ws := s.watches[i]
		for j := range ws {
			s.ca.reloc(&ws[j].cref, &to)
		}
	}
	// Reasons are set only for assigned variables, i.e. those on the trail.
	for _, l := range s.trail {
		if r := &s.reason[l.Var()]; *r != crefUndef {
			s.ca.reloc(r, &to)
		}
	}
	s.ca = to
	s.Stats.Compactions++
}

func (s *Solver) isReason(c cref) bool {
	v := s.ca.lits(c)[0].Var()
	return s.reason[v] == c && s.assign[v] != lUndef
}

func (s *Solver) detachClause(c cref) {
	lits := s.ca.lits(c)
	if s.ca.learnt(c) {
		s.numLearnts--
	}
	for _, l := range []cnf.Lit{lits[0], lits[1]} {
		ws := s.watches[l.Not()]
		for i, w := range ws {
			if w.cref == c {
				ws[i] = ws[len(ws)-1]
				s.watches[l.Not()] = ws[:len(ws)-1]
				break
			}
		}
	}
	s.ca.delete(c)
}

// luby computes the Luby restart sequence value for index i (1-based):
// 1, 1, 2, 1, 1, 2, 4, 1, 1, 2, 1, 1, 2, 4, 8, ...
func luby(i int64) int64 {
	x := i - 1
	size, seq := int64(1), 0
	for size < x+1 {
		seq++
		size = 2*size + 1
	}
	for size-1 != x {
		size = (size - 1) >> 1
		seq--
		x %= size
	}
	return int64(1) << uint(seq)
}

// Solve determines satisfiability of the current clause set.
func (s *Solver) Solve() Status { return s.SolveAssuming(nil) }

// SolveAssuming determines satisfiability under the given assumption literals.
// On Sat, Model returns a full assignment. On Unsat, FailedAssumptions returns
// a subset of the assumptions that is already unsatisfiable together with the
// clause set.
func (s *Solver) SolveAssuming(assumps []cnf.Lit) Status {
	st, _ := s.solve(assumps)
	return st
}

// SolveErr is like SolveAssuming but reports why an Unknown verdict was
// returned: ErrBudget for the legacy conflict/propagation budgets, or the
// shared budget's error (budget.ErrCancelled, budget.ErrDeadline, ...) when
// the Budget field stopped the search.
func (s *Solver) SolveErr(assumps []cnf.Lit) (Status, error) {
	return s.solve(assumps)
}

// SolveWithin is like SolveErr, but decides and propagates only inside
// vars, the scope: decisions come from the scope's variables alone, and
// above decision level 0 a clause that becomes unit on a variable outside
// the scope stays watched and is not propagated. Propagation at level 0
// stays complete, so later calls of any kind see an intact watch
// invariant. The assumptions' variables must lie in the scope. Sat is
// reported once every scope variable is assigned without conflict; Model
// then gives the scope variables their values, and variables left
// unassigned read false.
//
// Unsat is sound for any solver: it holds under any decision order and on
// any subset of the clauses, and learned clauses are resolvents, so they
// stay valid for the whole clause set. Sat is sound only when every
// clause-consistent assignment of the scope extends to a model of all the
// clauses. That holds for a solver fed by aig.CNFBuilder with the SAT
// variables of a fanin-closed cone as scope: its clauses are Tseitin
// definitions of a fanin-closed node set (plus learned clauses those
// imply), so evaluating the AIG extends the scope's assignment. Other
// solvers must use SolveErr.
func (s *Solver) SolveWithin(assumps []cnf.Lit, vars []cnf.Var) (Status, error) {
	for _, v := range vars {
		s.EnsureVars(int(v))
		s.inScope[v] = true
		if s.assign[v] == lUndef {
			s.scopeHeap.insert(v, s.activity)
		}
	}
	s.scoped = true
	defer func() {
		s.scoped = false
		for _, v := range vars {
			s.inScope[v] = false
		}
		s.scopeHeap.clear()
	}()
	return s.solve(assumps)
}

func (s *Solver) solve(assumps []cnf.Lit) (Status, error) {
	s.Stats.SolveCalls++
	// Fault-injection seam: every CDCL oracle call in the stack funnels
	// through here, so the plan of the solve's budget can panic, stall, or
	// fail the oracle.
	if err := s.Budget.Faults().Fire(faults.SATSolve); err != nil {
		s.model = nil
		s.conflictSet = nil
		return Unknown, err
	}
	if !s.ok {
		s.conflictSet = nil
		return Unsat, nil
	}
	for _, l := range assumps {
		s.EnsureVars(int(l.Var()))
	}
	s.assumptions = append(s.assumptions[:0], assumps...)
	s.model = nil
	s.conflictSet = nil
	defer s.cancelUntil(0)

	confBudget := s.ConflictBudget
	startConf := s.Stats.Conflicts

	var restarts int64
	floor := 100.0
	if s.KeepLearnts > 0 {
		floor = float64(s.KeepLearnts)
	}
	maxLearnts := float64(s.numProblem)/3 + floor

	for {
		restarts++
		limit := luby(restarts) * 100
		st := s.search(limit, &maxLearnts)
		if st != Unknown {
			return st, nil
		}
		if err := s.Budget.Err(); err != nil {
			return Unknown, err
		}
		if confBudget > 0 && s.Stats.Conflicts-startConf >= confBudget {
			return Unknown, ErrBudget
		}
		s.Stats.Restarts++
	}
}

// stopRequested polls the shared budget every 64 search iterations (and
// unconditionally when force is set, i.e. on every conflict). The throttle
// keeps the deadline syscall off the propagation fast path.
func (s *Solver) stopRequested(force bool) bool {
	if s.Budget == nil {
		return false
	}
	s.budgetPoll++
	if !force && s.budgetPoll&63 != 0 {
		return false
	}
	return s.Budget.Stopped()
}

// search runs CDCL until a verdict, a restart (conflict limit), or budget.
func (s *Solver) search(conflictLimit int64, maxLearnts *float64) Status {
	var conflicts int64
	for {
		confl := s.propagate()
		if confl != crefUndef {
			s.Stats.Conflicts++
			conflicts++
			s.Budget.AddConflicts(1)
			if s.decisionLevel() == 0 {
				s.ok = false
				return Unsat
			}
			if s.stopRequested(true) {
				return Unknown
			}
			learnt, btLevel := s.analyze(confl)
			s.cancelUntil(btLevel)
			if len(learnt) == 1 {
				s.uncheckedEnqueue(learnt[0], crefUndef)
			} else {
				c := s.attachClause(learnt, true)
				s.ca.setLBD(c, s.computeLBD(learnt))
				s.bumpClause(c)
				s.uncheckedEnqueue(learnt[0], c)
				s.Stats.Learned++
				s.numLearnts++
			}
			s.varInc /= s.varDec
			s.claInc /= s.claDec
			continue
		}
		// No conflict.
		if s.stopRequested(false) {
			return Unknown
		}
		if conflicts >= conflictLimit {
			s.cancelUntil(0)
			return Unknown
		}
		if float64(s.numLearnts) >= *maxLearnts {
			s.reduceDB()
			*maxLearnts *= 1.1
		}
		// Assumptions first.
		if s.decisionLevel() < len(s.assumptions) {
			l := s.assumptions[s.decisionLevel()]
			switch s.value(l) {
			case lTrue:
				// Dummy decision level to keep the invariant
				// decisionLevel >= #processed assumptions.
				s.trailLim = append(s.trailLim, len(s.trail))
				continue
			case lFalse:
				s.conflictSet = s.analyzeFinal(l.Not())
				return Unsat
			default:
				s.Stats.Decisions++
				s.Budget.AddDecisions(1)
				s.trailLim = append(s.trailLim, len(s.trail))
				s.uncheckedEnqueue(l, crefUndef)
				continue
			}
		}
		l, ok := s.pickBranchLit()
		if !ok {
			// All (scope) variables assigned: model found.
			s.model = cnf.NewAssignment(s.numVars)
			for v := 1; v <= s.numVars; v++ {
				s.model.Set(cnf.Var(v), s.assign[v] == lTrue)
			}
			return Sat
		}
		s.Stats.Decisions++
		s.Budget.AddDecisions(1)
		s.trailLim = append(s.trailLim, len(s.trail))
		s.uncheckedEnqueue(l, crefUndef)
	}
}

// analyzeFinal computes the set of assumptions responsible for forcing
// literal p false.
func (s *Solver) analyzeFinal(p cnf.Lit) []cnf.Lit {
	out := []cnf.Lit{p}
	if s.decisionLevel() == 0 {
		return out
	}
	s.seen[p.Var()] = 1
	for i := len(s.trail) - 1; i >= s.trailLim[0]; i-- {
		v := s.trail[i].Var()
		if s.seen[v] == 0 {
			continue
		}
		if s.reason[v] == crefUndef {
			// Assumption (or decision mirroring one).
			out = append(out, s.trail[i].Not())
		} else {
			for _, q := range s.ca.lits(s.reason[v])[1:] {
				if s.level[q.Var()] > 0 {
					s.seen[q.Var()] = 1
				}
			}
		}
		s.seen[v] = 0
	}
	s.seen[p.Var()] = 0
	return out
}

// Model returns the satisfying assignment found by the last successful Solve.
// It returns nil if the last call did not return Sat.
func (s *Solver) Model() cnf.Assignment { return s.model }

// FailedAssumptions returns, after an Unsat result of SolveAssuming, a subset
// of the negated assumptions sufficient for unsatisfiability.
func (s *Solver) FailedAssumptions() []cnf.Lit { return s.conflictSet }
