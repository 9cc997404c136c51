// Package cluster implements the hqsc coordinator: it consistent-hashes
// canonical formula hashes across a set of hqsd worker base URLs, forwards
// /solve and /jobs over the existing HTTP JSON wire format (workers are
// unmodified hqsd processes), merges /stats across the ring, and on worker
// failure retries the request on the next ring node, with the service retry
// policy's backoff knobs. A forward costs one worker round trip: the home
// node's first try is POSTed directly (a saturated worker answers 429 and a
// draining one 503, both of which fail over), and /readyz is probed only
// before a failover try. A worker that has not answered a POST within the
// probe timeout is asked for /healthz; no answer at all abandons the POST
// and fails over, so a frozen worker is skipped, not waited on.
//
// Hard instances escalate from forwarding to cube-and-conquer: the formula
// is split on CubeVars shared universal prefix variables (see internal/cube
// for the Thm-1 soundness argument) into 2^k cofactor subproblems fanned
// across the ring, spread evenly: cube i starts at worker i mod n of the
// whole formula's ring order, so no worker gets more than ⌈2^k/n⌉ of them,
// and each cube's idempotency key carries its own canonical hash. The first
// UNSAT cube short-circuits the fan — sibling forwards are cancelled through
// their contexts, which hqsd turns into job cancellations — and an all-SAT
// fan stitches the per-cube Skolem certificates into one certificate that
// is re-checked against the original formula before the merged SAT verdict
// is reported. With SplitAfter > 0 the coordinator first forwards the
// whole formula to its home node under that budget and only escalates to
// the cube fan when the budgeted attempt comes back Unknown.
package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/cube"
	"repro/internal/dqbf"
	"repro/internal/problem"
	"repro/internal/service"
	"repro/internal/trace"
)

// Config sizes the coordinator.
type Config struct {
	// Workers are the hqsd base URLs forming the ring (required).
	Workers []string
	// VNodes is the number of virtual ring nodes per worker (default 32).
	VNodes int
	// CubeVars is the number of shared universal prefix variables to cube
	// when splitting (0 disables cube-and-conquer).
	CubeVars int
	// SplitAfter escalates: >0 first forwards the whole formula to one
	// worker under this timeout and only splits when that attempt returns
	// Unknown. 0 with CubeVars>0 splits immediately.
	SplitAfter time.Duration
	// Retry tunes the failover backoff (zero values take the service
	// defaults: 2 attempts, 5ms base, 250ms ceiling).
	Retry service.RetryPolicy
	// ProbeTimeout bounds a /readyz probe, made before a failover try and
	// by Ready and Stats, and is how long a POST may go unanswered before
	// the worker is asked for /healthz (default 500ms).
	ProbeTimeout time.Duration
	// Client is the HTTP client for forwards (default http.DefaultClient;
	// per-request contexts bound the calls, so no global timeout is set).
	Client *http.Client
	// Trace receives the cube.split/cube.merge pipeline events (nil drops
	// them).
	Trace trace.Sink
}

// CoordStats are the coordinator's own counters, reported under /stats next
// to the per-worker scheduler counters.
type CoordStats struct {
	// Forwards counts HTTP forwards attempted (all endpoints).
	Forwards int64 `json:"forwards"`
	// Failovers counts forwards abandoned on one worker and retried on the
	// next ring node.
	Failovers int64 `json:"failovers"`
	// Escalations counts budgeted single-worker attempts that came back
	// Unknown and escalated to a cube fan.
	Escalations int64 `json:"escalations"`
	// CubeSplits counts formulas split into cube fans.
	CubeSplits int64 `json:"cube_splits"`
	// CubeUnsatShortCircuits counts fans ended early by an UNSAT cube.
	CubeUnsatShortCircuits int64 `json:"cube_unsat_short_circuits"`
	// CubeSiblingsCancelled counts in-flight sibling forwards cancelled by
	// an UNSAT short circuit.
	CubeSiblingsCancelled int64 `json:"cube_siblings_cancelled"`
}

// WorkerStats is one ring member's view in the merged /stats.
type WorkerStats struct {
	URL   string         `json:"url"`
	Ready bool           `json:"ready"`
	Error string         `json:"error,omitempty"`
	Stats *service.Stats `json:"stats,omitempty"`
}

// Stats is the merged cluster view: per-worker scheduler counters, their
// numeric sum, and the coordinator's own counters.
type Stats struct {
	Workers     []WorkerStats `json:"workers"`
	Totals      service.Stats `json:"totals"`
	Coordinator CoordStats    `json:"coordinator"`
}

// Result is a finished cluster solve.
type Result struct {
	// Info is the job snapshot: the worker's for forwarded solves, a
	// synthesized one (engine "cluster") for cube fans.
	Info service.JobInfo
	// Cert is the decoded Skolem certificate when one was requested and the
	// verdict is SAT — the worker's for forwards, the checked merge for
	// fans.
	Cert *cert.Certificate
	// CubeVars and Cubes describe the split fan (0 for plain forwards).
	CubeVars int
	Cubes    int
}

// Coordinator shards and splits work across hqsd workers.
type Coordinator struct {
	cfg    Config
	ring   *ring
	client *http.Client

	forwards               atomic.Int64
	failovers              atomic.Int64
	escalations            atomic.Int64
	cubeSplits             atomic.Int64
	cubeUnsatShortCircuits atomic.Int64
	cubeSiblingsCancelled  atomic.Int64
}

// New validates the worker set and builds the ring.
func New(cfg Config) (*Coordinator, error) {
	if len(cfg.Workers) == 0 {
		return nil, errors.New("cluster: no workers configured")
	}
	for _, w := range cfg.Workers {
		if !strings.HasPrefix(w, "http://") && !strings.HasPrefix(w, "https://") {
			return nil, fmt.Errorf("cluster: worker %q is not an http(s) base URL", w)
		}
	}
	if cfg.Client == nil {
		cfg.Client = http.DefaultClient
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = 500 * time.Millisecond
	}
	return &Coordinator{
		cfg:    cfg,
		ring:   newRing(cfg.Workers, cfg.VNodes),
		client: cfg.Client,
	}, nil
}

// coordStats snapshots the coordinator counters.
func (c *Coordinator) coordStats() CoordStats {
	return CoordStats{
		Forwards:               c.forwards.Load(),
		Failovers:              c.failovers.Load(),
		Escalations:            c.escalations.Load(),
		CubeSplits:             c.cubeSplits.Load(),
		CubeUnsatShortCircuits: c.cubeUnsatShortCircuits.Load(),
		CubeSiblingsCancelled:  c.cubeSiblingsCancelled.Load(),
	}
}

// ready probes one worker's /readyz under the probe timeout.
func (c *Coordinator) ready(ctx context.Context, worker int) bool {
	return c.probe(ctx, worker, "/readyz") == http.StatusOK
}

// probe GETs one worker's path under the probe timeout and returns the
// status code, or 0 when no answer came.
func (c *Coordinator) probe(ctx context.Context, worker int, path string) int {
	ctx, cancel := context.WithTimeout(ctx, c.cfg.ProbeTimeout)
	defer cancel()
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.cfg.Workers[worker]+path, nil)
	if err != nil {
		return 0
	}
	resp, err := c.client.Do(req)
	if err != nil {
		return 0
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	return resp.StatusCode
}

// errPermanent wraps worker rejections that must not fail over (the request
// itself is bad; the next worker would reject it identically).
type errPermanent struct{ err error }

func (e errPermanent) Error() string { return e.err.Error() }
func (e errPermanent) Unwrap() error { return e.err }

// forwardOnce POSTs body to one worker and decodes a job snapshot reply.
// Retryable failures (network errors, 429, 5xx, a stalled worker) return a
// plain error; client-side rejections return errPermanent.
//
// A worker that has not answered within the probe timeout is asked for
// /healthz, and any status counts as alive: a busy worker on a long solve
// keeps the POST, while a frozen one (stopped process, wedged server)
// answers nothing and the POST is abandoned so the forward fails over.
func (c *Coordinator) forwardOnce(ctx context.Context, worker int, path string, body []byte, idemKey string) (reply *solveReply, err error) {
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	var stalled atomic.Bool
	watch := time.AfterFunc(c.cfg.ProbeTimeout, func() {
		if c.probe(ctx, worker, "/healthz") == 0 {
			stalled.Store(true)
			cancel()
		}
	})
	defer func() {
		watch.Stop()
		if err != nil && stalled.Load() {
			err = fmt.Errorf("cluster: %s stalled: no answer within %s, none to /healthz", c.cfg.Workers[worker], c.cfg.ProbeTimeout)
		}
	}()
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.cfg.Workers[worker]+path, bytes.NewReader(body))
	if err != nil {
		return nil, errPermanent{err}
	}
	req.Header.Set("Content-Type", "application/x-dqdimacs")
	if idemKey != "" {
		req.Header.Set("X-Idempotency-Key", idemKey)
	}
	c.forwards.Add(1)
	resp, err := c.client.Do(req)
	if err != nil {
		return nil, err
	}
	defer func() {
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}()
	switch {
	case resp.StatusCode == http.StatusOK || resp.StatusCode == http.StatusAccepted:
		var reply solveReply
		if err := json.NewDecoder(resp.Body).Decode(&reply); err != nil {
			return nil, fmt.Errorf("cluster: bad reply from %s: %w", c.cfg.Workers[worker], err)
		}
		reply.worker = worker
		return &reply, nil
	case resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500:
		raw, _ := io.ReadAll(resp.Body)
		return nil, fmt.Errorf("cluster: %s answered %d: %s", c.cfg.Workers[worker], resp.StatusCode, bytes.TrimSpace(raw))
	default:
		raw, _ := io.ReadAll(resp.Body)
		return nil, errPermanent{fmt.Errorf("cluster: %s rejected the request (%d): %s", c.cfg.Workers[worker], resp.StatusCode, bytes.TrimSpace(raw))}
	}
}

// solveReply is a worker's job snapshot, with the optional certificate
// attachment of the httpapi ?cert=1 extension.
type solveReply struct {
	service.JobInfo
	CertSkolem string `json:"cert_skolem,omitempty"`
	worker     int
}

// forward walks a failover order — home node first, successors on failure —
// with the retry policy's exponential backoff between full rounds. The home
// node's first try is POSTed without a probe, so a healthy forward is one
// round trip; a saturated or draining home node answers 429 or 503, and a
// frozen one is caught by forwardOnce's /healthz check, all of which fail
// over like any retryable error. Every later try is preceded by a /readyz
// probe. Permanent rejections stop the walk immediately.
func (c *Coordinator) forward(ctx context.Context, order []int, path string, body []byte, idemKey string) (*solveReply, error) {
	retry := c.cfg.Retry
	var lastErr error
	attempts := maxAttempts(retry)
	for round := 0; round < attempts; round++ {
		if round > 0 {
			select {
			case <-time.After(backoff(retry, round-1)):
			case <-ctx.Done():
				return nil, ctx.Err()
			}
		}
		for i, w := range order {
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			if i > 0 || round > 0 {
				c.failovers.Add(1)
				if !c.ready(ctx, w) {
					lastErr = fmt.Errorf("cluster: %s not ready", c.cfg.Workers[w])
					continue
				}
			}
			reply, err := c.forwardOnce(ctx, w, path, body, idemKey)
			if err == nil {
				return reply, nil
			}
			var perm errPermanent
			if errors.As(err, &perm) {
				return nil, err
			}
			if ctx.Err() != nil {
				return nil, ctx.Err()
			}
			lastErr = err
		}
	}
	if lastErr == nil {
		lastErr = errors.New("cluster: no worker accepted the request")
	}
	return nil, lastErr
}

func maxAttempts(p service.RetryPolicy) int {
	if p.MaxAttempts <= 0 {
		return 2
	}
	return p.MaxAttempts
}

// backoff is the coordinator's copy of the service retry schedule, built
// from the exported policy fields: BaseDelay doubling per round, capped at
// MaxDelay (service defaults for zero values, without the jitter — ring
// walks are already decorrelated by key).
func backoff(p service.RetryPolicy, round int) time.Duration {
	base, ceil := p.BaseDelay, p.MaxDelay
	if base <= 0 {
		base = 5 * time.Millisecond
	}
	if ceil <= 0 {
		ceil = 250 * time.Millisecond
	}
	d := base << uint(round)
	if d <= 0 || d > ceil {
		d = ceil
	}
	return d
}

// solvePath builds the /solve query for the forwarded limits.
func solvePath(eng service.Engine, lim service.Limits, wantCert bool) string {
	q := "/solve?engine=" + string(eng)
	if lim.Timeout > 0 {
		q += "&timeout=" + lim.Timeout.String()
	}
	if lim.Conflicts > 0 {
		q += "&conflicts=" + strconv.FormatInt(lim.Conflicts, 10)
	}
	if lim.Decisions > 0 {
		q += "&decisions=" + strconv.FormatInt(lim.Decisions, 10)
	}
	if lim.Nodes > 0 {
		q += "&nodes=" + strconv.Itoa(lim.Nodes)
	}
	if wantCert {
		q += "&cert=1"
	}
	return q
}

// marshalFormula serializes a formula for the wire. Every supported input
// format normalizes to the same canonical hash, so re-serializing as
// DQDIMACS keeps worker cache keys aligned with the coordinator's ring keys.
func marshalFormula(f *dqbf.Formula) ([]byte, error) {
	var buf bytes.Buffer
	if err := f.WriteDQDIMACS(&buf); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Solve decides p through the cluster: plain forwarding, immediate cube
// fan, or budget-based escalation, per the configuration. wantCert attaches
// (and for fans, merges and re-checks) the Skolem certificate on SAT.
func (c *Coordinator) Solve(ctx context.Context, p *problem.Problem, eng service.Engine, lim service.Limits, wantCert bool) (*Result, error) {
	if eng == "" {
		eng = service.EnginePortfolio
	}
	f := p.Formula
	key := p.CanonicalHash()
	order := c.ring.order(key)

	plan := (*cube.Plan)(nil)
	if c.cfg.CubeVars > 0 {
		plan = cube.Split(f, c.cfg.CubeVars, c.cfg.Trace)
	}

	// The whole formula is serialized only when it is forwarded whole: as a
	// plain forward, or as the budget-based escalation's cheap single-worker
	// attempt, where only an Unknown (budget ran out) escalates to the fan.
	if plan.Empty() || c.cfg.SplitAfter > 0 {
		body, err := marshalFormula(f)
		if err != nil {
			return nil, fmt.Errorf("cluster: serializing formula: %w", err)
		}
		wholeLim, idemKey := lim, key+":solve"
		if !plan.Empty() {
			wholeLim.Timeout, idemKey = c.cfg.SplitAfter, key+":probe"
		}
		reply, err := c.forward(ctx, order, solvePath(eng, wholeLim, wantCert), body, idemKey)
		if err != nil {
			// Unreachable ring: surface it rather than fanning into the void.
			return nil, err
		}
		if plan.Empty() || (reply.Outcome != nil && (reply.Outcome.Verdict == service.VerdictSat || reply.Outcome.Verdict == service.VerdictUnsat)) {
			return c.replyResult(reply, wantCert)
		}
		c.escalations.Add(1)
	}

	return c.solveCubes(ctx, f, order, plan, eng, lim, wantCert)
}

// replyResult lifts a forwarded snapshot into a Result, decoding the
// certificate attachment when present.
func (c *Coordinator) replyResult(reply *solveReply, wantCert bool) (*Result, error) {
	res := &Result{Info: reply.JobInfo}
	if wantCert && reply.CertSkolem != "" {
		dc, err := cert.Decode([]byte(reply.CertSkolem))
		if err != nil {
			return nil, fmt.Errorf("cluster: decoding certificate from %s: %w", c.cfg.Workers[reply.worker], err)
		}
		res.Cert = dc
	}
	return res, nil
}

// solveCubes fans the plan across the ring: one forwarded /solve per cube,
// first UNSAT cancelling the siblings, all-SAT merging and re-checking the
// certificates. Cube i starts at home[i mod n], where home is the whole
// formula's ring order, and fails over along home rotated to start there, so
// no worker is first for more than ⌈2^k/n⌉ cubes. Each cube's idempotency
// key is its own canonical hash and its index: the hash names the
// subproblem, which the whole formula's hash does not (a copy listing its
// universals in another order may split on other variables), and the index
// keeps two equal cubes of one fan two jobs.
func (c *Coordinator) solveCubes(ctx context.Context, f *dqbf.Formula, home []int, plan *cube.Plan, eng service.Engine, lim service.Limits, wantCert bool) (*Result, error) {
	c.cubeSplits.Add(1)
	fanCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	type cubeOutcome struct {
		idx   int
		reply *solveReply
		err   error
	}
	results := make([]cubeOutcome, len(plan.Cubes))
	var wg sync.WaitGroup
	var unsatOnce sync.Once
	for i, cb := range plan.Cubes {
		wg.Add(1)
		go func(i int, cb cube.Cube) {
			defer wg.Done()
			body, err := marshalFormula(cb.Formula)
			if err != nil {
				results[i] = cubeOutcome{idx: i, err: err}
				return
			}
			s := i % len(home)
			order := append(slices.Clone(home[s:]), home[:s]...)
			reply, err := c.forward(fanCtx, order, solvePath(eng, lim, true), body,
				problem.CanonicalFormulaHash(cb.Formula)+":cube"+strconv.Itoa(i))
			results[i] = cubeOutcome{idx: i, reply: reply, err: err}
			if err == nil && reply.Outcome != nil && reply.Outcome.Verdict == service.VerdictUnsat {
				unsatOnce.Do(func() {
					c.cubeUnsatShortCircuits.Add(1)
					cancel() // disconnect sibling /solve calls; hqsd cancels their jobs
				})
			}
		}(i, cb)
	}
	wg.Wait()

	info := service.JobInfo{
		State:  service.StateDone,
		Engine: "cluster",
		Format: "dqdimacs",
		Kind:   "dqbf",
	}
	res := &Result{Info: info, CubeVars: len(plan.Vars), Cubes: len(plan.Cubes)}
	reason := fmt.Sprintf("cube(k=%d)", len(plan.Vars))

	// First UNSAT wins exactly (any cube refuted refutes the formula).
	for _, r := range results {
		if r.err == nil && r.reply.Outcome != nil && r.reply.Outcome.Verdict == service.VerdictUnsat {
			for _, s := range results {
				if s.idx != r.idx && (s.err != nil || s.reply.Outcome == nil || s.reply.Outcome.Verdict != service.VerdictUnsat) {
					c.cubeSiblingsCancelled.Add(1)
				}
			}
			res.Info.Outcome = &service.Outcome{
				Verdict: service.VerdictUnsat,
				Engine:  r.reply.Outcome.Engine,
				Reason:  reason + " cube " + strconv.Itoa(r.idx) + " unsat",
			}
			return res, nil
		}
	}

	// No UNSAT: every cube must have answered SAT for a SAT verdict; any
	// failure or Unknown degrades the whole fan to Unknown/Error.
	certs := make([]*cert.Certificate, len(plan.Cubes))
	for _, r := range results {
		if r.err != nil {
			var perm errPermanent
			if errors.As(r.err, &perm) {
				return nil, r.err
			}
			res.Info.Outcome = &service.Outcome{
				Verdict: service.VerdictError,
				Reason:  reason + " cube " + strconv.Itoa(r.idx) + " failed",
				Error:   r.err.Error(),
			}
			return res, nil
		}
		out := r.reply.Outcome
		if out == nil || out.Verdict != service.VerdictSat {
			o := service.Outcome{Verdict: service.VerdictUnknown, Reason: reason + " cube " + strconv.Itoa(r.idx) + " unknown"}
			if out != nil {
				o.Verdict = out.Verdict
				o.Reason = reason + " cube " + strconv.Itoa(r.idx) + " " + out.Reason
				o.Error = out.Error
			}
			res.Info.Outcome = &o
			return res, nil
		}
		if wantCert {
			if r.reply.CertSkolem == "" {
				res.Info.Outcome = &service.Outcome{
					Verdict: service.VerdictError,
					Reason:  reason + " certificate missing",
					Error:   fmt.Sprintf("cluster: cube %d answered SAT without a certificate", r.idx),
				}
				return res, nil
			}
			dc, err := cert.Decode([]byte(r.reply.CertSkolem))
			if err != nil {
				res.Info.Outcome = &service.Outcome{
					Verdict: service.VerdictError,
					Reason:  reason + " certificate undecodable",
					Error:   err.Error(),
				}
				return res, nil
			}
			certs[r.idx] = dc
		}
	}

	res.Info.Outcome = &service.Outcome{
		Verdict: service.VerdictSat,
		Engine:  "cluster",
		Reason:  reason + " all cubes sat",
	}
	if wantCert {
		merged, err := cube.MergeCerts(f, plan, certs, c.cfg.Trace)
		if err != nil {
			return nil, fmt.Errorf("cluster: merging cube certificates: %w", err)
		}
		// The checker is the coordinator's independent oracle: a merged SAT
		// verdict is only reported with a certificate it accepts.
		if err := cert.Check(f, merged); err != nil {
			res.Info.Outcome = &service.Outcome{
				Verdict: service.VerdictError,
				Reason:  reason + " merged certificate rejected",
				Error:   err.Error(),
			}
			return res, nil
		}
		res.Cert = merged
		res.Info.Outcome.Cert = merged
	}
	return res, nil
}

// Stats merges /stats across the ring: every worker's scheduler counters
// (with reachability), their numeric sum, and the coordinator's counters.
func (c *Coordinator) Stats(ctx context.Context) Stats {
	st := Stats{Coordinator: c.coordStats()}
	for i, w := range c.cfg.Workers {
		ws := WorkerStats{URL: w}
		func() {
			ctx, cancel := context.WithTimeout(ctx, 2*time.Second)
			defer cancel()
			req, err := http.NewRequestWithContext(ctx, http.MethodGet, w+"/stats", nil)
			if err != nil {
				ws.Error = err.Error()
				return
			}
			resp, err := c.client.Do(req)
			if err != nil {
				ws.Error = err.Error()
				return
			}
			defer resp.Body.Close()
			var s service.Stats
			if err := json.NewDecoder(resp.Body).Decode(&s); err != nil {
				ws.Error = err.Error()
				return
			}
			ws.Stats = &s
		}()
		ws.Ready = c.ready(ctx, i)
		if ws.Stats != nil {
			addStats(&st.Totals, ws.Stats)
		}
		st.Workers = append(st.Workers, ws)
	}
	return st
}

// addStats accumulates the numeric scheduler counters of one worker.
func addStats(dst *service.Stats, s *service.Stats) {
	dst.Submitted += s.Submitted
	dst.Completed += s.Completed
	dst.Solved += s.Solved
	dst.Unknown += s.Unknown
	dst.Cancelled += s.Cancelled
	dst.Errors += s.Errors
	dst.Retries += s.Retries
	dst.Fallbacks += s.Fallbacks
	dst.Panics += s.Panics
	dst.CacheHits += s.CacheHits
	dst.StoreHits += s.StoreHits
	dst.IdemHits += s.IdemHits
	dst.Rejected += s.Rejected
	dst.HistoryEvicted += s.HistoryEvicted
	dst.HistoryLen += s.HistoryLen
	dst.Queued += s.Queued
	dst.Running += s.Running
	dst.CacheLen += s.CacheLen
	dst.Workers += s.Workers
}

// Ready reports whether at least one ring node accepts work.
func (c *Coordinator) Ready(ctx context.Context) bool {
	for i := range c.cfg.Workers {
		if c.ready(ctx, i) {
			return true
		}
	}
	return false
}
