// Command hqsc is the cluster coordinator: it shards DQBF instances across a
// ring of hqsd workers and exposes the same solve surface a single hqsd
// does, so clients move from one worker to a cluster by changing the URL.
//
// Sharding is consistent hashing of the canonical formula hash over the
// worker base URLs (virtual nodes, -vnodes), so the same instance always
// lands on the same worker and hits its cache/store. A forward is one round
// trip: the home node is tried directly, and a worker that fails it —
// network error, 429 (saturated), 5xx (503 while draining) — is skipped.
// A worker that leaves a POST unanswered for -probe-timeout is asked for
// /healthz, and one that answers nothing there either is skipped too.
// The request retries on the next ring node, after a /readyz probe bounded
// by -probe-timeout, with exponential backoff
// (-retry-attempts, -retry-base-delay, -retry-max-delay); the
// X-Idempotency-Key header pins the logical submission so a retried forward
// cannot double-run a job a worker had in fact accepted.
//
// Cube-and-conquer: with -cube-vars k > 0 the coordinator splits a formula
// on k shared universal prefix variables into 2^k cofactor subproblems
// (internal/cube) fanned across the ring, evenly: the cubes are dealt
// round-robin along the whole formula's ring order, so no worker gets more
// than ⌈2^k/n⌉ of them. The first UNSAT cube refutes the
// formula and cancels the in-flight siblings; an all-SAT fan merges the
// per-cube Skolem certificates into one certificate that is re-checked
// against the original formula before the SAT verdict is reported. With
// -split d > 0 the whole formula is first forwarded to its home node under
// budget d, and only an Unknown escalates to the fan.
//
// API (the hqsd wire format, with cluster job IDs "w<worker>:<id>"):
//
//	POST   /solve?engine=portfolio&timeout=30s&cert=1  -> 200 finished job
//	POST   /jobs?engine=idq                            -> 202 job snapshot
//	GET    /jobs/{id}                                  -> job snapshot
//	GET    /jobs/{id}/trace                            -> pipeline trace
//	DELETE /jobs/{id}                                  -> cancel
//	GET    /stats     -> merged per-worker + coordinator counters
//	GET    /healthz   -> coordinator liveness
//	GET    /readyz    -> 200 when at least one worker accepts work
package main

import (
	"context"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"log"
	"net/http"
	"os"
	"os/signal"
	"strconv"
	"strings"
	"syscall"
	"time"

	"repro/internal/cert"
	"repro/internal/cluster"
	"repro/internal/problem"
	"repro/internal/service"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8090", "listen address")
		workers      = flag.String("workers", "", "comma-separated hqsd base URLs forming the ring (required)")
		vnodes       = flag.Int("vnodes", 32, "virtual ring nodes per worker")
		cubeVars     = flag.Int("cube-vars", 0, "universal prefix variables to cube when splitting (0 = never split)")
		split        = flag.Duration("split", 0, "budget for the single-worker attempt before escalating to a cube fan (0 = split immediately when -cube-vars > 0)")
		engine       = flag.String("engine", "portfolio", "default engine forwarded to workers")
		maxBody      = flag.Int64("max-body", 64<<20, "request body size limit in bytes")
		probeTimeout = flag.Duration("probe-timeout", 500*time.Millisecond, "bound on a /readyz probe (made before a failover try and by /readyz and /stats), and how long a POST may go unanswered before the worker is asked for /healthz")
		retryMax     = flag.Int("retry-attempts", 0, "full ring walks per forward before giving up (0 = default 2)")
		retryBase    = flag.Duration("retry-base-delay", 0, "backoff before the second ring walk, doubling per walk (0 = default 5ms)")
		retryCeiling = flag.Duration("retry-max-delay", 0, "ceiling on the ring-walk backoff (0 = default 250ms)")
	)
	flag.Parse()

	eng, err := service.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqsc:", err)
		os.Exit(1)
	}
	var urls []string
	for _, w := range strings.Split(*workers, ",") {
		if w = strings.TrimSpace(w); w != "" {
			urls = append(urls, strings.TrimRight(w, "/"))
		}
	}
	coord, err := cluster.New(cluster.Config{
		Workers:      urls,
		VNodes:       *vnodes,
		CubeVars:     *cubeVars,
		SplitAfter:   *split,
		ProbeTimeout: *probeTimeout,
		Retry: service.RetryPolicy{
			MaxAttempts: *retryMax,
			BaseDelay:   *retryBase,
			MaxDelay:    *retryCeiling,
		},
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqsc:", err)
		os.Exit(1)
	}

	srv := &server{coord: coord, eng: eng, maxBody: *maxBody}
	httpSrv := &http.Server{
		Addr:              *addr,
		Handler:           srv.handler(),
		ReadHeaderTimeout: 10 * time.Second,
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-stop
		log.Printf("hqsc: %v received, shutting down", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
		defer cancel()
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("hqsc: shutdown: %v", err)
		}
	}()

	log.Printf("hqsc: coordinating %d workers on %s (cube-vars %d, split %v)",
		len(urls), *addr, *cubeVars, *split)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("hqsc: %v", err)
	}
	<-done
	log.Print("hqsc: bye")
}

// server is the coordinator's thin HTTP layer over cluster.Coordinator.
type server struct {
	coord   *cluster.Coordinator
	eng     service.Engine
	maxBody int64
}

func (s *server) handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /solve", s.handleSolve)
	mux.HandleFunc("POST /jobs", s.handleSubmit)
	mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	mux.HandleFunc("GET /jobs/{id}/trace", s.handleTrace)
	mux.HandleFunc("DELETE /jobs/{id}", s.handleCancel)
	mux.HandleFunc("GET /stats", s.handleStats)
	mux.HandleFunc("GET /healthz", s.handleHealthz)
	mux.HandleFunc("GET /readyz", s.handleReadyz)
	return mux
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

// parseRequest reads the problem body and the engine/limit query parameters
// of /solve and /jobs (the hqsd parameter set).
func (s *server) parseRequest(w http.ResponseWriter, r *http.Request) (*problem.Problem, service.Engine, service.Limits, bool) {
	q := r.URL.Query()
	eng := s.eng
	if v := q.Get("engine"); v != "" {
		var err error
		if eng, err = service.ParseEngine(v); err != nil {
			writeError(w, http.StatusBadRequest, err)
			return nil, "", service.Limits{}, false
		}
	}
	var lim service.Limits
	if v := q.Get("timeout"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad timeout: %w", err))
			return nil, "", service.Limits{}, false
		}
		lim.Timeout = d
	}
	intParam := func(name string) (int64, bool) {
		v := q.Get(name)
		if v == "" {
			return 0, true
		}
		n, err := strconv.ParseInt(v, 10, 64)
		if err != nil {
			writeError(w, http.StatusBadRequest, fmt.Errorf("bad %s: %w", name, err))
			return 0, false
		}
		return n, true
	}
	var ok bool
	if lim.Conflicts, ok = intParam("conflicts"); !ok {
		return nil, "", service.Limits{}, false
	}
	if lim.Decisions, ok = intParam("decisions"); !ok {
		return nil, "", service.Limits{}, false
	}
	nodes, ok := intParam("nodes")
	if !ok {
		return nil, "", service.Limits{}, false
	}
	lim.Nodes = int(nodes)

	data, err := io.ReadAll(http.MaxBytesReader(w, r.Body, s.maxBody))
	if err != nil {
		var tooBig *http.MaxBytesError
		if errors.As(err, &tooBig) {
			writeError(w, http.StatusRequestEntityTooLarge,
				fmt.Errorf("request body exceeds %d bytes", tooBig.Limit))
			return nil, "", service.Limits{}, false
		}
		writeError(w, http.StatusBadRequest, err)
		return nil, "", service.Limits{}, false
	}
	p, err := problem.ParseBytes(data, problem.FormatFromContentType(r.Header.Get("Content-Type")))
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return nil, "", service.Limits{}, false
	}
	if p.Kind == problem.KindPQE {
		writeError(w, http.StatusBadRequest,
			fmt.Errorf("PQE queries are not cluster jobs; POST them to a worker's /pqe"))
		return nil, "", service.Limits{}, false
	}
	return p, eng, lim, true
}

func (s *server) handleSolve(w http.ResponseWriter, r *http.Request) {
	p, eng, lim, ok := s.parseRequest(w, r)
	if !ok {
		return
	}
	withCert := r.URL.Query().Get("cert") == "1"
	res, err := s.coord.Solve(r.Context(), p, eng, lim, withCert)
	if err != nil {
		writeError(w, http.StatusBadGateway, err)
		return
	}
	if res.Cert == nil {
		writeJSON(w, http.StatusOK, res.Info)
		return
	}
	blob, err := cert.Encode(res.Cert)
	if err != nil {
		writeJSON(w, http.StatusOK, res.Info)
		return
	}
	writeJSON(w, http.StatusOK, struct {
		service.JobInfo
		CertSkolem string `json:"cert_skolem"`
	}{res.Info, string(blob)})
}

func (s *server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	p, eng, lim, ok := s.parseRequest(w, r)
	if !ok {
		return
	}
	info, err := s.coord.SubmitJob(r.Context(), p, eng, lim)
	if err != nil {
		writeError(w, http.StatusBadGateway, err)
		return
	}
	writeJSON(w, http.StatusAccepted, info)
}

func (s *server) handleJob(w http.ResponseWriter, r *http.Request) {
	withCert := r.URL.Query().Get("cert") == "1"
	info, certBlob, status, err := s.coord.GetJob(r.Context(), r.PathValue("id"), withCert)
	if err != nil {
		writeError(w, status, err)
		return
	}
	if certBlob == "" {
		writeJSON(w, status, info)
		return
	}
	writeJSON(w, status, struct {
		service.JobInfo
		CertSkolem string `json:"cert_skolem"`
	}{info, certBlob})
}

func (s *server) handleTrace(w http.ResponseWriter, r *http.Request) {
	raw, status, err := s.coord.GetTrace(r.Context(), r.PathValue("id"))
	if err != nil {
		writeError(w, status, err)
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(raw)
}

func (s *server) handleCancel(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	status, err := s.coord.CancelJob(r.Context(), id)
	if err != nil {
		writeError(w, status, err)
		return
	}
	writeJSON(w, http.StatusOK, map[string]string{"id": id, "status": "cancelling"})
}

func (s *server) handleStats(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, s.coord.Stats(r.Context()))
}

func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, map[string]string{"status": "ok"})
}

func (s *server) handleReadyz(w http.ResponseWriter, r *http.Request) {
	if s.coord.Ready(r.Context()) {
		writeJSON(w, http.StatusOK, map[string]string{"status": "ready"})
		return
	}
	writeJSON(w, http.StatusServiceUnavailable, map[string]string{"status": "no ready workers"})
}
