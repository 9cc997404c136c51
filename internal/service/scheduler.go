package service

import (
	"context"
	"errors"
	"fmt"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/budget"
	"repro/internal/cert"
	"repro/internal/dqbf"
	"repro/internal/faults"
	"repro/internal/problem"
	"repro/internal/store"
	"repro/internal/trace"
)

// Errors returned by Submit and Cancel.
var (
	// ErrQueueFull means the bounded job queue has no free slot.
	ErrQueueFull = errors.New("service: job queue full")
	// ErrDraining means the scheduler no longer accepts jobs.
	ErrDraining = errors.New("service: scheduler draining")
	// ErrNoSuchJob means the job ID is unknown (or already evicted).
	ErrNoSuchJob = errors.New("service: no such job")
	// ErrIdemConflict means the idempotency key is still tracked for a job
	// that solves a formula with another canonical hash.
	ErrIdemConflict = errors.New("service: idempotency key names another formula")
)

// Config sizes the scheduler.
type Config struct {
	// Workers is the number of concurrent solver workers (default 2).
	Workers int
	// QueueCap bounds the number of queued-but-not-running jobs (default 64).
	QueueCap int
	// CacheSize bounds the LRU result cache (default 256; 0 keeps the
	// default, negative disables caching).
	CacheSize int
	// HistorySize bounds how many finished jobs stay queryable before the
	// oldest are evicted (default 512).
	HistorySize int
	// DefaultEngine is used when a job names none (default portfolio).
	DefaultEngine Engine
	// DefaultTimeout applies when a job sets none; 0 means unlimited.
	DefaultTimeout time.Duration
	// MaxTimeout clamps per-job timeouts; 0 means no clamp.
	MaxTimeout time.Duration
	// Retry is the transient-failure policy applied to every job (zero
	// values take the RetryPolicy defaults).
	Retry RetryPolicy
	// TraceEvents bounds the per-job pass-trace ring (default 1024 events;
	// negative disables per-job tracing). The trace stays queryable with the
	// job's history entry, packed at a few dozen bytes per event.
	TraceEvents int
	// Store, when non-nil, is the persistent second cache tier: memory-cache
	// misses consult it before solving, definitive verdicts are written back,
	// and every running job is journaled so a killed daemon can report what
	// was in flight. SAT entries served from disk have their Skolem
	// certificate re-verified first; rejects are quarantined and re-solved.
	// The scheduler does not close the store — its opener does.
	Store *store.Store
	// Certify is the certify policy of the scheduler's Runner (hqsd
	// -certify): HQS SAT verdicts are reported only with a checked Skolem
	// certificate, and bare SAT store entries are re-solved instead of
	// served.
	Certify bool
	// Faults, when non-nil, is the fault-injection plan of this scheduler
	// (hqsd -faults). It fires the sched.dispatch and cache.lookup seams and
	// is copied into every job's budget, which carries it to the engine
	// seams and service.certify; hqsd's handler fires problem.parse from it
	// too. nil means no faults.
	Faults *faults.Plan
}

func (c Config) withDefaults() Config {
	if c.Workers <= 0 {
		c.Workers = 2
	}
	if c.QueueCap <= 0 {
		c.QueueCap = 64
	}
	if c.CacheSize == 0 {
		c.CacheSize = 256
	}
	if c.HistorySize <= 0 {
		c.HistorySize = 512
	}
	if c.DefaultEngine == "" {
		c.DefaultEngine = EnginePortfolio
	}
	if c.TraceEvents == 0 {
		c.TraceEvents = 1024
	}
	c.Retry = c.Retry.withDefaults()
	return c
}

// Limits are the per-job resource bounds accepted by Submit.
type Limits struct {
	// Timeout bounds wall-clock solve time; 0 uses the scheduler default.
	Timeout time.Duration
	// Conflicts and Decisions cap the CDCL meters; 0 means unlimited.
	Conflicts int64
	Decisions int64
	// Nodes caps the AIG size for the HQS engine; 0 keeps the engine default.
	Nodes int
}

func (l Limits) budgetLimits() budget.Limits {
	return budget.Limits{Timeout: l.Timeout, Conflicts: l.Conflicts, Decisions: l.Decisions, Nodes: l.Nodes}
}

// JobState is the lifecycle phase of a job.
type JobState string

const (
	// StateQueued means the job waits for a worker.
	StateQueued JobState = "queued"
	// StateRunning means a worker is solving the job.
	StateRunning JobState = "running"
	// StateDone means the job finished (its Outcome is final). Done is the
	// only terminal state; the outcome's verdict distinguishes solved,
	// budget-stopped (Unknown), and failed (Error) jobs.
	StateDone JobState = "done"
)

// JobInfo is a point-in-time snapshot of a job, shaped for JSON.
type JobInfo struct {
	ID     string   `json:"id"`
	State  JobState `json:"state"`
	Engine Engine   `json:"engine"`
	// Format and Kind record the ingested problem's input format ("dqdimacs",
	// "qdimacs", "aiger", "bench") and quantifier kind ("dqbf", "qbf").
	Format string `json:"format,omitempty"`
	Kind   string `json:"kind,omitempty"`
	// QueueWaitMS is the time between submission and a worker picking the
	// job up (grows while queued).
	QueueWaitMS int64 `json:"queue_wait_ms"`
	// SolveTimeMS is the time a worker has spent on the job (grows while
	// running).
	SolveTimeMS int64    `json:"solve_time_ms"`
	Outcome     *Outcome `json:"outcome,omitempty"`
}

// Job is one scheduled solve. A finished job keeps only what its snapshot
// and trace can still return: the fields fixed at Submit, its timings, its
// outcome and its packed pass trace — never its formula.
type Job struct {
	id     string
	engine Engine
	// format and kind describe the ingested problem for Info.
	format, kind string
	idemKey      string
	// key is the problem's canonical hash: the cache and store key, and what
	// a resubmit under idemKey must match.
	key string
	bud *budget.Budget
	// req is the request a worker solves: the problem cloned, the engine
	// resolved, and the trace sink joined with trc. Only a queued or running
	// job holds one; finishing clears it, so the history retains no formula.
	// Cache and store hits never set it.
	req Request
	// journaled is set once the persistent store has a start record for this
	// job, so finishJob knows whether a matching done record is owed. Only
	// the owning worker and its finisher touch it (happens-before via the
	// queue hand-off and the finish path).
	journaled bool
	// dispatched is set once a worker counts the job as running, so its
	// first finisher uncounts it before the done channel closes. Only the
	// owning worker touches it, like journaled.
	dispatched bool
	// trc records the per-pass pipeline trace of every engine attempt, packed
	// (see trace.Recorder); nil for cache and store hits and when the
	// scheduler's TraceEvents config disables tracing.
	trc *trace.Recorder

	mu        sync.Mutex
	state     JobState
	submitted time.Time
	started   time.Time
	finished  time.Time
	outcome   Outcome

	done chan struct{} // closed when the job reaches StateDone
}

// ID returns the scheduler-assigned job identifier.
func (j *Job) ID() string { return j.id }

// Done returns a channel closed when the job finishes.
func (j *Job) Done() <-chan struct{} { return j.done }

// Outcome returns the final outcome; valid only after Done is closed.
func (j *Job) Outcome() Outcome {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.outcome
}

// Trace returns the job's per-pass pipeline trace so far (one trace.Event
// per executed pass across every engine attempt) and how many events were
// dropped by the ring bound. The events are decoded from the job's packed
// trace on each call. It returns (nil, 0) when tracing is disabled or the
// job never ran an HQS pipeline (cache and store hits, iDQ-only jobs).
func (j *Job) Trace() ([]trace.Event, int) {
	if j.trc == nil {
		return nil, 0
	}
	return j.trc.Events(), j.trc.Dropped()
}

// Info returns a snapshot of the job's state and timings.
func (j *Job) Info() JobInfo {
	j.mu.Lock()
	defer j.mu.Unlock()
	info := JobInfo{ID: j.id, State: j.state, Engine: j.engine, Format: j.format, Kind: j.kind}
	switch j.state {
	case StateQueued:
		info.QueueWaitMS = time.Since(j.submitted).Milliseconds()
	case StateRunning:
		info.QueueWaitMS = j.started.Sub(j.submitted).Milliseconds()
		info.SolveTimeMS = time.Since(j.started).Milliseconds()
	case StateDone:
		info.QueueWaitMS = j.started.Sub(j.submitted).Milliseconds()
		info.SolveTimeMS = j.finished.Sub(j.started).Milliseconds()
		out := j.outcome
		info.Outcome = &out
	}
	return info
}

// finish moves the job to StateDone exactly once; it reports whether this
// call performed the transition, so racing finishers (a worker and a drain
// flush, or a panic recovery after a completed hand-off) cannot double-count
// stats or double-close the done channel.
func (j *Job) finish(out Outcome) bool {
	if !j.beginFinish(out) {
		return false
	}
	close(j.done)
	return true
}

// beginFinish performs the exactly-once state transition of finish but
// leaves the done channel open, so the scheduler can persist the outcome
// durably before any waiter can observe it. The winner MUST close j.done.
func (j *Job) beginFinish(out Outcome) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state == StateDone {
		return false
	}
	if j.started.IsZero() {
		// Finished without ever running (cache hit or drain flush).
		j.started = j.submitted
	}
	j.state = StateDone
	j.finished = time.Now()
	j.outcome = out
	j.req = Request{} // the formula and the caller's sink are not served again
	return true
}

// Stats are service counters, shaped for JSON: a Runner fills in the
// engine, oracle, and PQE meters, a Scheduler everything.
type Stats struct {
	Submitted int64 `json:"submitted"`
	Completed int64 `json:"completed"`
	Solved    int64 `json:"solved"`
	Unknown   int64 `json:"unknown"`
	Cancelled int64 `json:"cancelled"`
	// Errors counts jobs that finished with VerdictError after retries and
	// fallbacks were exhausted.
	Errors int64 `json:"errors"`
	// Retries counts engine re-runs beyond each job's first attempt
	// (fallback attempts included).
	Retries int64 `json:"retries"`
	// Fallbacks is the summed fallback depth of finished jobs (how many
	// chain steps past the requested engine were needed).
	Fallbacks int64 `json:"fallbacks"`
	// Panics counts engine or worker panics that were contained.
	Panics    int64 `json:"panics"`
	CacheHits int64 `json:"cache_hits"`
	// StoreHits counts submissions answered from the persistent disk tier
	// (certificates re-verified before serving).
	StoreHits int64 `json:"store_hits"`
	// IdemHits counts submissions deduplicated onto an existing job by an
	// idempotency key — retried coordinator forwards land here instead of
	// double-counting as submissions and completions.
	IdemHits int64 `json:"idem_hits"`
	Rejected int64 `json:"rejected"`
	// HistoryEvicted counts finished jobs dropped from the bounded job
	// history; HistoryLen is its current size.
	HistoryEvicted int64 `json:"history_evicted"`
	HistoryLen     int   `json:"history_len"`
	Queued         int   `json:"queued"`
	Running        int   `json:"running"`
	CacheLen       int   `json:"cache_len"`
	Workers        int   `json:"workers"`
	// Oracle counters sum the persistent incremental SAT oracle stats that
	// the runner's HQS runs report (portfolio arms, retries and
	// fallbacks included; certificate checks are not counted).
	OracleQueries     int64 `json:"oracle_queries"`
	OracleIncremental int64 `json:"oracle_incremental"`
	OracleRebuilds    int64 `json:"oracle_rebuilds"`
	// Engines breaks the runner's attempts and definitive verdicts down per
	// engine: in portfolio mode the winning arm is credited, so the table
	// answers which engine actually produces the verdicts.
	Engines map[Engine]EngineCounters `json:"engines"`
	// PQEQueries and PQEFailures count PQE queries answered and failed. They
	// are not part of the /stats wire format.
	PQEQueries  int64 `json:"-"`
	PQEFailures int64 `json:"-"`
	// Store holds the persistent tier's own counters (hits, misses, corrupt,
	// quarantined, io_errors, …); nil when the daemon runs without -store.
	Store *store.Stats `json:"store,omitempty"`
}

// Scheduler runs submitted jobs on a bounded worker pool.
type Scheduler struct {
	cfg    Config
	runner *Runner
	cache  *resultCache
	store  *store.Store // nil without -store; second cache tier below the LRU

	mu       sync.Mutex
	queue    chan *Job
	jobs     map[string]*Job
	idem     map[string]string // idempotency key -> job ID, for deduplicated resubmits
	doneIDs  []string          // finished jobs in completion order, for history eviction
	draining bool
	nextID   int64

	wg      sync.WaitGroup
	running atomic.Int64

	submitted      atomic.Int64
	completed      atomic.Int64
	solved         atomic.Int64
	unknown        atomic.Int64
	cancelled      atomic.Int64
	errored        atomic.Int64
	retries        atomic.Int64
	fallbacks      atomic.Int64
	panics         atomic.Int64
	cacheHits      atomic.Int64
	storeHits      atomic.Int64
	idemHits       atomic.Int64
	rejected       atomic.Int64
	historyEvicted atomic.Int64
}

// NewScheduler starts a scheduler with cfg (zero values take defaults).
func NewScheduler(cfg Config) *Scheduler {
	cfg = cfg.withDefaults()
	s := &Scheduler{
		cfg:    cfg,
		runner: &Runner{Certify: cfg.Certify},
		cache:  newResultCache(cfg.CacheSize),
		store:  cfg.Store,
		queue:  make(chan *Job, cfg.QueueCap),
		jobs:   make(map[string]*Job),
		idem:   make(map[string]string),
	}
	s.wg.Add(cfg.Workers)
	for i := 0; i < cfg.Workers; i++ {
		go s.worker()
	}
	return s
}

// Submit validates and enqueues a job for req.Problem, any formula kind
// from any input format (PQE queries are not jobs — SolvePQE answers them
// synchronously). A job that will run solves a clone of the problem, so the
// caller may reuse it, and drops the clone when it finishes; a cache or
// store hit completes the job immediately without queueing or cloning, and
// keeps only the problem's kind and format. Returns ErrQueueFull when the
// queue has no slot and ErrDraining once Drain has begun — the draining
// check and the queue send happen under one lock with Drain's queue close,
// so a job is either rejected with ErrDraining or enqueued before the close
// and guaranteed to reach a terminal state.
//
// The cache/store key is the problem's canonical hash, which is computed on
// the normalized formula: the same instance ingested as DQDIMACS and as a
// BENCH netlist shares one cache and store entry.
//
// With a non-empty req.IdemKey, while a job submitted under the same key is
// still tracked (queued, running, or finished-but-unevicted), resubmits
// return that job instead of creating a new one, and count as IdemHits
// rather than submissions. A resubmit whose problem has another canonical
// hash than that job's is refused with ErrIdemConflict: a key answers only
// for its own formula. The cluster coordinator keys forwarded submits on
// canonical hash plus attempt number, so a forward retried after a network
// failure cannot double-run — and double-count — a job the worker had in
// fact accepted. Keys unregister when their job is evicted from history.
func (s *Scheduler) Submit(req Request) (*Job, error) {
	if req.Engine == "" {
		req.Engine = s.cfg.DefaultEngine
	}
	if _, err := ParseEngine(string(req.Engine)); err != nil {
		return nil, err
	}
	p := req.Problem
	if p.Kind == problem.KindPQE {
		s.rejected.Add(1)
		return nil, fmt.Errorf("service: PQE queries are not scheduler jobs (use SolvePQE)")
	}
	if err := p.Validate(); err != nil {
		s.rejected.Add(1)
		return nil, err
	}

	// Both cache tiers are probed before s.mu is taken: the disk tier
	// re-verifies Skolem certificates (a SAT call) and must not run under the
	// scheduler lock. A hit found here is finished under the lock below, so
	// the draining check stays atomic with enqueue/finish.
	key := p.CanonicalHash()
	out, hit := s.cacheLookup(key)
	if hit {
		out.FromCache = true
	} else if out, hit = s.storeLookup(p.Formula, key); hit {
		out.FromStore = true
	}

	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		s.rejected.Add(1)
		return nil, ErrDraining
	}
	if req.IdemKey != "" {
		if id, ok := s.idem[req.IdemKey]; ok {
			if j, tracked := s.jobs[id]; tracked {
				if j.key != key {
					s.rejected.Add(1)
					return nil, fmt.Errorf("%w: key %q is job %s", ErrIdemConflict, req.IdemKey, id)
				}
				s.idemHits.Add(1)
				return j, nil
			}
			delete(s.idem, req.IdemKey) // job evicted underneath the key
		}
	}
	s.nextID++
	job := &Job{
		id:        fmt.Sprintf("j%d", s.nextID),
		engine:    req.Engine,
		format:    string(p.Format),
		kind:      p.Kind.String(),
		idemKey:   req.IdemKey,
		key:       key,
		bud:       budget.New(s.budgetLimits(req.Limits)),
		state:     StateQueued,
		submitted: time.Now(),
		done:      make(chan struct{}),
	}

	if hit {
		if out.FromStore {
			s.storeHits.Add(1)
		} else {
			s.cacheHits.Add(1)
		}
		s.submitted.Add(1)
		s.completed.Add(1)
		s.solved.Add(1)
		job.finish(out)
		s.remember(job)
		if req.IdemKey != "" {
			s.idem[req.IdemKey] = job.id
		}
		return job, nil
	}

	// A job that will run gets its own copy: the engines rewrite the
	// formula in place. A cache or store hit never solves, so it keeps
	// neither the caller's problem nor a trace recorder.
	job.req = req
	job.req.Problem = p.Clone()
	if s.cfg.TraceEvents > 0 {
		job.trc = trace.NewRecorder(s.cfg.TraceEvents)
		job.req.Trace = trace.Multi(job.trc, req.Trace)
	}
	select {
	case s.queue <- job:
	default:
		s.rejected.Add(1)
		return nil, ErrQueueFull
	}
	s.submitted.Add(1)
	s.jobs[job.id] = job
	if req.IdemKey != "" {
		s.idem[req.IdemKey] = job.id
	}
	return job, nil
}

// budgetLimits applies the scheduler's timeout policy to a request's
// limits: DefaultTimeout when the request sets none, clamped to MaxTimeout.
// The budget carries the scheduler's fault plan.
func (s *Scheduler) budgetLimits(lim Limits) budget.Limits {
	if lim.Timeout <= 0 {
		lim.Timeout = s.cfg.DefaultTimeout
	}
	if s.cfg.MaxTimeout > 0 && (lim.Timeout <= 0 || lim.Timeout > s.cfg.MaxTimeout) {
		lim.Timeout = s.cfg.MaxTimeout
	}
	bl := lim.budgetLimits()
	bl.Faults = s.cfg.Faults
	return bl
}

// Faults returns the scheduler's fault-injection plan (Config.Faults).
func (s *Scheduler) Faults() *faults.Plan { return s.cfg.Faults }

// SolvePQE answers the PQE query req.Problem on the caller's goroutine —
// PQE queries are not jobs — under the same DefaultTimeout/MaxTimeout
// policy Submit applies. The query is cancelled when ctx ends (say, when
// the client that asked has gone away).
func (s *Scheduler) SolvePQE(ctx context.Context, req Request) PQEOutcome {
	b := budget.New(s.budgetLimits(req.Limits))
	defer context.AfterFunc(ctx, b.Cancel)()
	return s.runner.SolvePQE(b, req)
}

// cacheLookup consults the result cache with panic containment: a broken
// (or fault-injected) cache must degrade to a miss, never take Submit down.
func (s *Scheduler) cacheLookup(key string) (out Outcome, ok bool) {
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			out, ok = Outcome{}, false
		}
	}()
	if err := s.cfg.Faults.Fire(faults.CacheLookup); err != nil {
		return Outcome{}, false
	}
	return s.cache.Get(key)
}

// storeLookup consults the persistent tier after a memory-cache miss. Every
// failure mode — no store configured, I/O error, corrupt entry, unknown
// version, rejected certificate, even a panic in the decode path — degrades
// to a miss so the job solves in memory; the store can make the daemon
// faster but never wrong. A served SAT verdict has its certificate
// re-verified against the formula here, and a verified hit is promoted into
// the memory cache so repeats skip the disk.
func (s *Scheduler) storeLookup(f *dqbf.Formula, key string) (out Outcome, ok bool) {
	if s.store == nil {
		return Outcome{}, false
	}
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			out, ok = Outcome{}, false
		}
	}()
	e, err := s.store.Get(key)
	if err != nil || e == nil {
		return Outcome{}, false
	}
	out = Outcome{Engine: Engine(e.Engine), Reason: "solved"}
	switch e.Verdict {
	case store.VerdictSat:
		if e.Cert == nil {
			// A bare SAT entry (written by an engine without certificate
			// support) cannot be re-proved; while certification is on it does
			// not meet the service's bar, so re-solve instead of trusting it.
			if s.cfg.Certify {
				return Outcome{}, false
			}
		} else if err := cert.Check(f, e.Cert); err != nil {
			// The checksum held but the certificate does not prove the
			// formula: quarantine the entry and solve fresh. The store must
			// never return a verdict whose certificate fails the checker.
			s.store.RejectCert(key, err)
			return Outcome{}, false
		}
		out.Verdict = VerdictSat
		out.Cert = e.Cert
	case store.VerdictUnsat:
		out.Verdict = VerdictUnsat
	default:
		return Outcome{}, false
	}
	s.cache.Put(key, Outcome{Verdict: out.Verdict, Engine: out.Engine, Reason: out.Reason})
	return out, true
}

// storePut persists a definitive verdict (and its verified certificate) to
// the disk tier. Failures are already counted and logged by the store; the
// scheduler just moves on — the result stays served from memory.
func (s *Scheduler) storePut(job *Job, out Outcome) {
	if s.store == nil || out.FromStore {
		return
	}
	var v store.Verdict
	switch out.Verdict {
	case VerdictSat:
		v = store.VerdictSat
	case VerdictUnsat:
		v = store.VerdictUnsat
	default:
		return
	}
	job.mu.Lock()
	solveMS := job.finished.Sub(job.started).Milliseconds()
	job.mu.Unlock()
	s.store.Put(&store.Entry{
		Key:         job.key,
		Verdict:     v,
		Engine:      string(out.Engine),
		Conflicts:   out.Conflicts,
		Decisions:   out.Decisions,
		SolveMS:     solveMS,
		CreatedUnix: time.Now().Unix(),
		Cert:        out.Cert,
	})
}

// remember records a finished job in the history, evicting the oldest
// finished jobs beyond the history bound. Caller holds s.mu.
func (s *Scheduler) remember(j *Job) {
	s.jobs[j.id] = j
	s.doneIDs = append(s.doneIDs, j.id)
	for len(s.doneIDs) > s.cfg.HistorySize {
		if old := s.jobs[s.doneIDs[0]]; old != nil && old.idemKey != "" {
			delete(s.idem, old.idemKey)
		}
		delete(s.jobs, s.doneIDs[0])
		s.doneIDs = s.doneIDs[1:]
		s.historyEvicted.Add(1)
	}
}

// Job returns the job with the given ID, if still tracked.
func (s *Scheduler) Job(id string) (*Job, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	j, ok := s.jobs[id]
	return j, ok
}

// Cancel stops the job with the given ID: a queued job completes as
// cancelled once a worker picks it up; a running job's budget interrupts the
// solver cores. Cancelling a finished job is a no-op.
func (s *Scheduler) Cancel(id string) error {
	j, ok := s.Job(id)
	if !ok {
		return ErrNoSuchJob
	}
	j.bud.Cancel()
	return nil
}

// worker consumes the queue until it is closed by Drain.
func (s *Scheduler) worker() {
	defer s.wg.Done()
	for job := range s.queue {
		s.runJob(job)
	}
}

// finishJob completes a job exactly once: the first finisher records stats,
// feeds both cache tiers, and files the job into history; later racers are
// no-ops. Persistence happens BEFORE the done channel closes: once a waiter
// has seen a definitive verdict, it is already fsynced on disk, so a kill -9
// immediately after the response cannot lose a result a client observed.
func (s *Scheduler) finishJob(job *Job, out Outcome) {
	if !job.beginFinish(out) {
		return
	}
	// A waiter woken by Done must not still see the job as running.
	if job.dispatched {
		s.running.Add(-1)
	}
	func() {
		// The done channel below must close no matter what the persistence
		// path does — a panicking store may cost durability, never a hang.
		defer func() {
			if r := recover(); r != nil {
				s.panics.Add(1)
			}
		}()
		s.completed.Add(1)
		switch out.Verdict {
		case VerdictSat, VerdictUnsat:
			s.solved.Add(1)
			// Only definitive verdicts are cached: Unknown depends on the
			// budget that produced it and Error on the failure that did.
			s.cache.Put(job.key, Outcome{
				Verdict: out.Verdict,
				Engine:  out.Engine,
				Reason:  out.Reason,
			})
			s.storePut(job, out)
		case VerdictError:
			s.errored.Add(1)
		default:
			s.unknown.Add(1)
			if out.Reason == "cancelled" {
				s.cancelled.Add(1)
			}
		}
		if job.journaled {
			s.store.JournalDone(job.id)
		}
	}()
	// Filed into history before the done channel closes, so a waiter's
	// Stats or Job lookup already sees the finished job.
	s.mu.Lock()
	s.remember(job)
	s.mu.Unlock()
	close(job.done)
}

func (s *Scheduler) runJob(job *Job) {
	s.running.Add(1)
	job.dispatched = true
	// Last line of defense: no panic may kill a worker. Engine panics are
	// already converted to Error outcomes further down; this recover
	// contains everything else (injected dispatch panics, bugs in the
	// scheduler's own bookkeeping) and still moves the job to a terminal
	// state. finishJob's first-finisher rule keeps a late panic after a
	// successful hand-off from double-counting.
	defer func() {
		if r := recover(); r != nil {
			s.panics.Add(1)
			s.finishJob(job, Outcome{
				Verdict:    VerdictError,
				Engine:     job.engine,
				Reason:     "error",
				Error:      fmt.Sprintf("worker panic: %v", r),
				PanicStack: string(debug.Stack()),
			})
		}
	}()

	job.mu.Lock()
	job.state = StateRunning
	job.started = time.Now()
	job.mu.Unlock()

	// Journal the start before solving so a killed process can report this
	// job as lost on its next start.
	if s.store != nil {
		s.store.JournalStart(job.id, job.key)
		job.journaled = true
	}

	// Fault-injection seam: worker dispatch, before any engine runs.
	if err := s.cfg.Faults.Fire(faults.SchedDispatch); err != nil {
		s.finishJob(job, Outcome{
			Verdict: VerdictError,
			Engine:  job.engine,
			Reason:  "error",
			Error:   fmt.Sprintf("dispatch failed: %v", err),
		})
		return
	}

	attempt := 0
	out := s.runner.solve(job.bud, job.req, s.cfg.Retry, func(att Outcome) {
		attempt++
		if attempt > 1 {
			s.retries.Add(1)
		}
		if att.PanicStack != "" {
			s.panics.Add(1)
		}
	})
	s.fallbacks.Add(int64(out.Fallbacks))
	out.Conflicts = job.bud.ConflictsUsed()
	out.Decisions = job.bud.DecisionsUsed()
	s.finishJob(job, out)
}

// Drain stops accepting jobs, then waits for queued and running jobs to
// finish or for ctx to expire — in the latter case every outstanding job is
// cancelled and Drain waits for the workers to unwind before returning
// ctx.Err(). Drain is idempotent; concurrent calls all wait. Submissions
// racing Drain either land in the queue before it closes (and are run or
// flushed to a cancelled terminal state) or fail with ErrDraining; none are
// silently dropped.
func (s *Scheduler) Drain(ctx context.Context) error {
	s.mu.Lock()
	if !s.draining {
		s.draining = true
		close(s.queue)
	}
	s.mu.Unlock()

	idle := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(idle)
	}()
	select {
	case <-idle:
		return nil
	case <-ctx.Done():
	}

	// Hard drain: cancel everything still tracked, then wait for workers.
	s.mu.Lock()
	for _, j := range s.jobs {
		j.bud.Cancel()
	}
	s.mu.Unlock()
	for job := range s.queue { // release queued jobs the workers never took
		s.finishJob(job, Outcome{Verdict: VerdictUnknown, Reason: "cancelled"})
	}
	<-idle
	return ctx.Err()
}

// Draining reports whether Drain has begun.
func (s *Scheduler) Draining() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.draining
}

// QueueFree returns the number of free queue slots (0 when draining), the
// load signal behind hqsd's readiness endpoint and 429 shedding.
func (s *Scheduler) QueueFree() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.draining {
		return 0
	}
	return cap(s.queue) - len(s.queue)
}

// Stats returns a snapshot of the scheduler counters.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	historyLen := len(s.doneIDs)
	s.mu.Unlock()
	st := s.runner.Stats()
	st.Submitted = s.submitted.Load()
	st.Completed = s.completed.Load()
	st.Solved = s.solved.Load()
	st.Unknown = s.unknown.Load()
	st.Cancelled = s.cancelled.Load()
	st.Errors = s.errored.Load()
	st.Retries = s.retries.Load()
	st.Fallbacks = s.fallbacks.Load()
	st.Panics = s.panics.Load()
	st.CacheHits = s.cacheHits.Load()
	st.StoreHits = s.storeHits.Load()
	st.IdemHits = s.idemHits.Load()
	st.Rejected = s.rejected.Load()
	st.HistoryEvicted = s.historyEvicted.Load()
	st.HistoryLen = historyLen
	st.Queued = len(s.queue)
	st.Running = int(s.running.Load())
	st.CacheLen = s.cache.Len()
	st.Workers = s.cfg.Workers
	if s.store != nil {
		ss := s.store.Stats()
		st.Store = &ss
	}
	return st
}
