// Package httpapi is the hqsd daemon's HTTP layer, factored out of the
// command so the cluster coordinator and its tests can run real workers
// in-process (httptest servers backed by real Schedulers) against the exact
// wire surface a production hqsd exposes. The cmd/hqsd binary is a thin
// main around this package.
//
// Endpoints (see cmd/hqsd for the full API documentation):
//
//	POST   /jobs            enqueue, 202 job snapshot
//	GET    /jobs/{id}       job snapshot (?cert=1 attaches the Skolem blob)
//	GET    /jobs/{id}/trace per-pass pipeline trace
//	DELETE /jobs/{id}       cancel
//	POST   /solve           submit and block (?cert=1 attaches the Skolem blob)
//	POST   /pqe             synchronous partial quantifier elimination
//	GET    /healthz         liveness
//	GET    /readyz          readiness (draining or saturated = 503)
//	GET    /stats           scheduler counters
//
// Two cluster-facing extensions over the original daemon surface:
//
//   - The X-Idempotency-Key request header on /jobs and /solve dedupes
//     resubmits onto the tracked job with that key (scheduler IdemHits), so a
//     coordinator retrying a forward after a network failure cannot
//     double-run a job the worker had in fact accepted. A key reused for
//     another formula is refused with 409 Conflict.
//
//   - The ?cert=1 query parameter on /solve and GET /jobs/{id} attaches the
//     cert.Encode wire form of the Skolem certificate to a SAT response
//     ("cert_skolem"), letting the coordinator stitch per-cube certificates
//     into one merged certificate and re-check it independently.
package httpapi

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log"
	"net/http"
	"runtime/debug"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/cert"
	"repro/internal/faults"
	"repro/internal/problem"
	"repro/internal/service"
	"repro/internal/trace"
)

// IdempotencyHeader is the request header carrying the submit idempotency
// key on /jobs and /solve.
const IdempotencyHeader = "X-Idempotency-Key"

// Server routes HTTP requests onto a service.Scheduler.
type Server struct {
	sched *service.Scheduler
	// healthy flips to false when shutdown begins so load balancers stop
	// routing to a draining instance before the listener closes.
	healthy atomic.Bool
	// MaxBody bounds request bodies (problem text in any format) in bytes.
	MaxBody int64
	// RequestTimeout bounds a blocking /solve request; 0 disables the bound
	// (the job's own timeout still applies).
	RequestTimeout time.Duration
}

// New wraps a scheduler in a Server with the default body bound.
func New(sched *service.Scheduler) *Server {
	s := &Server{sched: sched, MaxBody: 64 << 20}
	s.healthy.Store(true)
	return s
}

// Scheduler returns the scheduler this server routes onto.
func (s *Server) Scheduler() *service.Scheduler { return s.sched }

// SetHealthy flips the health state reported by /healthz and /readyz;
// shutdown paths set it false before draining.
func (s *Server) SetHealthy(v bool) { s.healthy.Store(v) }

// Handler builds the daemon's route table.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("POST /pqe", s.handlePQE)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	mux.HandleFunc("GET /stats", s.handleStats)
	return s.recoverer(mux)
}

// recoverer is the daemon's last-resort panic boundary: a handler panic
// becomes a 500 JSON error on that one request instead of a closed
// connection. The solver cores have their own containment in the service
// layer; this guards the HTTP plumbing itself.
func (s *Server) recoverer(next http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		defer func() {
			if rec := recover(); rec != nil {
				log.Printf("httpapi: panic serving %s %s: %v\n%s", r.Method, r.URL.Path, rec, debug.Stack())
				writeJSON(w, http.StatusInternalServerError,
					map[string]string{"error": fmt.Sprintf("internal error: %v", rec)})
			}
		}()
		next.ServeHTTP(w, r)
	})
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

func writeError(w http.ResponseWriter, status int, err error) {
	writeJSON(w, status, map[string]string{"error": err.Error()})
}

// jobResponse is a job snapshot plus the optional certificate attachment.
type jobResponse struct {
	service.JobInfo
	// CertSkolem is the cert.Encode wire form of the job's Skolem
	// certificate, attached on ?cert=1 when the job finished SAT with a
	// certificate in hand (certification enabled, not a memory-cache hit).
	CertSkolem string `json:"cert_skolem,omitempty"`
}

// jobView shapes the response for one job: the plain snapshot, plus the
// encoded Skolem certificate when the client asked for it and the job has
// one.
func jobView(job *service.Job, withCert bool) any {
	info := job.Info()
	if !withCert || info.State != service.StateDone || info.Outcome == nil ||
		info.Outcome.Verdict != service.VerdictSat {
		return info
	}
	out := job.Outcome()
	if out.Cert == nil {
		return info
	}
	blob, err := cert.Encode(out.Cert)
	if err != nil {
		// The verdict is still good; only the attachment failed.
		return info
	}
	return jobResponse{JobInfo: info, CertSkolem: string(blob)}
}

func wantCert(r *http.Request) bool {
	return r.URL.Query().Get("cert") == "1"
}

// parseLimits reads the engine/limit query parameters shared by /jobs,
// /solve, and /pqe.
func (s *Server) parseLimits(w http.ResponseWriter, r *http.Request) (service.Engine, service.Limits, bool) {
	q := r.URL.Query()
	eng, err := service.ParseEngine(q.Get("engine"))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return "", service.Limits{}, false
	}
	var lim service.Limits
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad timeout: %w", err))
			return "", service.Limits{}, false
		}
		lim.Timeout = d
	}
	intParam := func(name string) (int64, error) {
		v := q.Get(name)
		if v == "" {
			return 0, nil
		}
		return strconv.ParseInt(v, 10, 64)
	}
	if lim.Conflicts, err = intParam("conflicts"); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad conflicts: %w", err))
		return "", service.Limits{}, false
	}
	if lim.Decisions, err = intParam("decisions"); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad decisions: %w", err))
		return "", service.Limits{}, false
	}
	nodes, err := intParam("nodes")
	if err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("bad nodes: %w", err))
		return "", service.Limits{}, false
	}
	lim.Nodes = int(nodes)
	return eng, lim, true
}

// readProblem ingests the request body through the unified problem layer:
// the Content-Type header is the format hint when it names a known format
// (application/x-dqdimacs, -qdimacs, -aiger, -bench, -pqe); anything else —
// including the generic text/plain curl sends — falls back to content
// sniffing, so clients can POST any supported format to any ingesting
// endpoint without ceremony. The parse fires the problem.parse seam of the
// scheduler's fault plan first, so chaos drills can exercise the ingestion
// error path end to end.
func (s *Server) readProblem(w http.ResponseWriter, r *http.Request) (*problem.Problem, bool) {
	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.MaxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return nil, false
		}
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	if err := s.sched.Faults().Fire(faults.ProblemParse); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Errorf("problem: parse failed: %w", err))
		return nil, false
	}
	p, err := problem.ParseBytes(data, problem.FormatFromContentType(r.Header.Get("Content-Type")))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return p, true
}

// parseJobRequest reads a problem body (any supported format) and the
// engine/limit query parameters shared by /jobs and /solve.
func (s *Server) parseJobRequest(w http.ResponseWriter, r *http.Request) (*problem.Problem, service.Engine, service.Limits, bool) {
	eng, lim, ok := s.parseLimits(w, r)
	if !ok {
		return nil, "", service.Limits{}, false
	}
	p, ok := s.readProblem(w, r)
	if !ok {
		return nil, "", service.Limits{}, false
	}
	if p.Kind == problem.KindPQE {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("PQE queries are not solver jobs; POST them to /pqe"))
		return nil, "", service.Limits{}, false
	}
	return p, eng, lim, true
}

func (s *Server) submit(w http.ResponseWriter, r *http.Request) (*service.Job, bool) {
	p, eng, lim, ok := s.parseJobRequest(w, r)
	if !ok {
		return nil, false
	}
	job, err := s.sched.Submit(service.Request{
		Problem: p, Engine: eng, Limits: lim, IdemKey: r.Header.Get(IdempotencyHeader),
	})
	switch {
	case errors.Is(err, service.ErrQueueFull):
		// Load shedding: the client should back off and retry, which is 429,
		// not 503 — the instance is healthy, just saturated.
		w.Header().Set("Retry-After", "1")
		writeError(w, http.StatusTooManyRequests, err)
		return nil, false
	case errors.Is(err, service.ErrDraining):
		writeError(w, http.StatusServiceUnavailable, err)
		return nil, false
	case errors.Is(err, service.ErrIdemConflict):
		// The key is taken by a job for another formula: resending cannot
		// help, so it is a permanent client error, not a retryable one.
		writeError(w, http.StatusConflict, err)
		return nil, false
	case err != nil:
		writeError(w, http.StatusBadRequest, err)
		return nil, false
	}
	return job, true
}

// handleSubmit enqueues a job and returns its snapshot without waiting.
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	job, ok := s.submit(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusAccepted, job.Info())
}

// handleSolve submits and blocks until the job finishes, the client goes
// away (job cancelled), or the per-request timeout expires (504, job
// cancelled) — a synchronous endpoint must not hold connections forever.
func (s *Server) handleSolve(w http.ResponseWriter, r *http.Request) {
	job, ok := s.submit(w, r)
	if !ok {
		return
	}
	var timeoutCh <-chan time.Time
	if s.RequestTimeout > 0 {
		timer := time.NewTimer(s.RequestTimeout)
		defer timer.Stop()
		timeoutCh = timer.C
	}
	select {
	case <-job.Done():
		writeJSON(w, http.StatusOK, jobView(job, wantCert(r)))
	case <-timeoutCh:
		s.sched.Cancel(job.ID())
		writeError(w, http.StatusGatewayTimeout,
			fmt.Errorf("request timeout after %v; job %s cancelled", s.RequestTimeout, job.ID()))
	case <-r.Context().Done():
		s.sched.Cancel(job.ID())
		<-job.Done()
	}
}

// handlePQE answers a partial-quantifier-elimination query synchronously:
// the body must be a PQE problem ("p pqe" header; Content-Type
// application/x-pqe or sniffed), the timeout/conflicts/decisions query
// parameters bound the query under the scheduler's timeout policy (the
// same -default-timeout/-max-timeout clamp /solve gets), a client that goes
// away cancels it, and the response carries the computed clause set Q
// (DIMACS literal arrays) with Q ∧ ∃X[G] ≡ ∃X[F ∧ G], plus the canonical
// hash of the query and the engine's round counters. A budget stop
// degrades to {"status": "unknown"}; internal failures are 500s.
func (s *Server) handlePQE(w http.ResponseWriter, r *http.Request) {
	_, lim, ok := s.parseLimits(w, r)
	if !ok {
		return
	}
	p, ok := s.readProblem(w, r)
	if !ok {
		return
	}
	if p.Kind != problem.KindPQE {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("/pqe wants a PQE query (\"p pqe\" header), got a %s problem; POST it to /solve", p.Kind))
		return
	}
	out := s.sched.SolvePQE(r.Context(), service.Request{Problem: p, Limits: lim})
	if out.Err != nil {
		if out.Stopped {
			writeJSON(w, http.StatusOK, map[string]any{
				"status": "unknown",
				"reason": out.Err.Error(),
			})
			return
		}
		writeError(w, http.StatusInternalServerError, out.Err)
		return
	}
	res := out.Result
	clauses := make([][]int, len(res.Q))
	for i, c := range res.Q {
		lits := make([]int, len(c))
		for j, l := range c {
			lits[j] = l.Dimacs()
		}
		clauses[i] = lits
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"status":    "ok",
		"hash":      p.CanonicalHash(),
		"clauses":   clauses,
		"rounds":    res.Rounds,
		"sat_calls": res.SATCalls,
		"blocked":   res.Blocked,
		"conflicts": out.Conflicts,
		"decisions": out.Decisions,
	})
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, service.ErrNoSuchJob)
		return
	}
	writeJSON(w, http.StatusOK, jobView(job, wantCert(r)))
}

// handleTrace returns the job's per-pass pipeline trace: one structured
// event per executed pass across every engine attempt, retained with the
// job's history entry. Events may still be arriving while the job runs;
// dropped counts events beyond the configured retention bound.
func (s *Server) handleTrace(w http.ResponseWriter, r *http.Request) {
	job, ok := s.sched.Job(r.PathValue("id"))
	if !ok {
		writeError(w, http.StatusNotFound, service.ErrNoSuchJob)
		return
	}
	events, dropped := job.Trace()
	if events == nil {
		events = []trace.Event{}
	}
	writeJSON(w, http.StatusOK, map[string]any{
		"id":      job.ID(),
		"dropped": dropped,
		"events":  events,
	})
}

func (s *Server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	if err := s.sched.Cancel(id); err != nil {
		writeError(w, http.StatusNotFound, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "cancelling"})
}

// handleHealthz is liveness: 200 while the process serves requests, 503 once
// shutdown has begun. Use /readyz to decide whether to route new work here.
func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	if !s.healthy.Load() || s.sched.Draining() {
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

// handleReadyz is readiness: 503 while the instance should not receive new
// jobs — shutting down, draining, or with a full queue. Distinct from
// /healthz so a saturated-but-healthy instance is depooled, not restarted.
func (s *Server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	switch {
	case !s.healthy.Load() || s.sched.Draining():
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "draining"})
	case s.sched.QueueFree() == 0:
		writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "saturated"})
	default:
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
	}
}

func (s *Server) handleStats(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.sched.Stats())
}
