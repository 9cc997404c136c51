// Command hqsd serves the DQBF solvers over HTTP: clients POST problem
// instances in any supported format — DQDIMACS, QDIMACS, AIGER, or BENCH —
// the daemon schedules them on a bounded worker pool (engine hqs, idq,
// expand, or a portfolio racing all three), and results are polled or
// awaited as JSON. The input format is taken from the Content-Type header
// when it names one (application/x-dqdimacs, -qdimacs, -aiger, -bench,
// -pqe) and sniffed from the body otherwise, and the cache/store key is the
// canonical hash of the normalized problem, so the same instance POSTed in
// different formats shares one cache entry. SIGTERM/SIGINT triggers a
// graceful drain: the health check flips to 503, queued and running jobs
// finish (up to -drain-timeout, after which they are cancelled), then the
// listener shuts down.
//
// API:
//
//	POST   /jobs?engine=portfolio&timeout=30s   body: problem   -> 202 job snapshot | 429 queue full
//	GET    /jobs/{id}                                           -> job snapshot
//	GET    /jobs/{id}/trace                                     -> per-pass pipeline trace (see internal/trace)
//	DELETE /jobs/{id}                                           -> cancel job
//	POST   /solve?engine=hqs&timeout=10s        body: problem   -> 200 finished job | 504 request timeout
//	POST   /pqe?timeout=10s                     body: PQE query -> 200 clause set Q | 400 not a PQE query
//	GET    /healthz                                             -> liveness: 200 ok | 503 shutting down
//	GET    /readyz                                              -> readiness: 200 ready | 503 draining or saturated
//	GET    /stats                                               -> scheduler counters
//
// A PQE query ("p pqe" header, see internal/problem) is answered
// synchronously on /pqe with the clause set Q satisfying
// Q ∧ ∃X[G] ≡ ∃X[F ∧ G]; POSTing one to /solve is a 400.
//
// Limit query parameters: timeout (Go duration), conflicts, decisions
// (CDCL caps), nodes (AIG node cap). -default-timeout and -max-timeout
// apply to /jobs, /solve, and /pqe alike. Oversized bodies get 413
// (-max-body).
//
// Failure handling: engine panics and oracle errors are contained per job
// (verdict ERROR, worker survives), transient failures are retried with
// backoff and fall back along hqs → portfolio → idq; -retry-attempts,
// -retry-base-delay, and -retry-max-delay tune the policy. The -faults flag
// arms one fault-injection plan (see internal/faults) for chaos drills on
// the scheduler, the engines its jobs run and the store,
// e.g. -faults 'sat.solve:panic:p=0.1;cache.lookup:error:every=3'.
//
// Persistence: -store DIR keeps definitive verdicts and their Skolem
// certificates in a crash-safe on-disk store (see internal/store) consulted
// on memory-cache misses; certificates are re-verified before a stored SAT
// verdict is served, corrupt entries are quarantined and re-solved, and a
// restart after kill -9 reports which jobs were in flight. The dqbfstore
// tool maintains the directory offline.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"repro/internal/faults"
	"repro/internal/httpapi"
	"repro/internal/service"
	"repro/internal/store"
)

func main() {
	var (
		addr         = flag.String("addr", "127.0.0.1:8080", "listen address")
		workers      = flag.Int("workers", 2, "concurrent solver workers")
		queueCap     = flag.Int("queue", 64, "job queue capacity")
		cacheSize    = flag.Int("cache-size", 256, "LRU result cache entries (negative = disable)")
		engine       = flag.String("engine", "portfolio", "default engine: hqs | idq | expand | portfolio")
		defTimeout   = flag.Duration("default-timeout", 0, "per-job timeout when the client sets none (0 = none)")
		maxTimeout   = flag.Duration("max-timeout", 0, "clamp on per-job timeouts (0 = none)")
		drainTimeout = flag.Duration("drain-timeout", 30*time.Second, "grace period for in-flight jobs on shutdown")
		maxBody      = flag.Int64("max-body", 64<<20, "request body size limit in bytes")
		reqTimeout   = flag.Duration("request-timeout", 0, "per-request bound on blocking /solve calls (0 = none)")
		faultSpec    = flag.String("faults", "", "fault-injection plan for chaos drills, e.g. 'sat.solve:panic:p=0.1'")
		faultSeed    = flag.Int64("fault-seed", 1, "seed for probabilistic fault rules")
		traceEvents  = flag.Int("trace-events", 0, "per-job pass-trace retention in events (0 = default 1024, negative = disable); a finished job keeps its trace packed, some 30-80 bytes per event")
		certify      = flag.Bool("certify", false, "verify a Skolem certificate before reporting any HQS SAT verdict")
		storeDir     = flag.String("store", "", "directory for the persistent result/certificate store (empty = memory cache only)")
		historySize  = flag.Int("history", 0, "finished jobs kept queryable before eviction (0 = default 512); each keeps its snapshot, certificate and packed trace but not its formula, a few KB on small instances")
		retryMax     = flag.Int("retry-attempts", 0, "runs per engine in the fallback chain, first included (0 = default 2)")
		retryBase    = flag.Duration("retry-base-delay", 0, "backoff before the first retry, doubling per retry (0 = default 5ms)")
		retryCeiling = flag.Duration("retry-max-delay", 0, "ceiling on the exponential retry backoff (0 = default 250ms)")
	)
	flag.Parse()

	eng, err := service.ParseEngine(*engine)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqsd:", err)
		os.Exit(1)
	}
	// One plan drives every seam of this daemon: the scheduler and, through
	// each job's budget, the engines; and the store.
	plan, err := faults.ParseSpec(*faultSpec, *faultSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hqsd:", err)
		os.Exit(1)
	}
	if plan != nil {
		log.Printf("hqsd: fault injection ACTIVE: %s (seed %d)", *faultSpec, *faultSeed)
	}
	var st *store.Store
	if *storeDir != "" {
		var lost []store.LostJob
		st, lost, err = store.Open(*storeDir, store.Options{Faults: plan})
		if err != nil {
			fmt.Fprintln(os.Stderr, "hqsd:", err)
			os.Exit(1)
		}
		for _, lj := range lost {
			log.Printf("hqsd: job %s (formula %.12s) was in flight when the previous process died; it will be re-solved on demand", lj.ID, lj.Key)
		}
		log.Printf("hqsd: persistent store open at %s (%d entries, %d jobs lost in previous run)", *storeDir, st.Len(), len(lost))
	}
	sched := service.NewScheduler(service.Config{
		Workers:        *workers,
		QueueCap:       *queueCap,
		CacheSize:      *cacheSize,
		HistorySize:    *historySize,
		DefaultEngine:  eng,
		DefaultTimeout: *defTimeout,
		MaxTimeout:     *maxTimeout,
		TraceEvents:    *traceEvents,
		Retry: service.RetryPolicy{
			MaxAttempts: *retryMax,
			BaseDelay:   *retryBase,
			MaxDelay:    *retryCeiling,
		},
		Store:   st,
		Certify: *certify,
		Faults:  plan,
	})
	srv := httpapi.New(sched)
	srv.MaxBody = *maxBody
	srv.RequestTimeout = *reqTimeout
	httpSrv := &http.Server{
		Addr:    *addr,
		Handler: srv.Handler(),
		// Slow-loris protection; bodies are bounded per handler instead so a
		// large legitimate instance can still stream in.
		ReadHeaderTimeout: 10 * time.Second,
	}

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, syscall.SIGTERM, syscall.SIGINT)
	done := make(chan struct{})
	go func() {
		defer close(done)
		sig := <-stop
		log.Printf("hqsd: %v received, draining (grace %v)", sig, *drainTimeout)
		srv.SetHealthy(false)
		ctx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
		defer cancel()
		if err := sched.Drain(ctx); err != nil {
			log.Printf("hqsd: drain cut short: %v", err)
		}
		if err := httpSrv.Shutdown(ctx); err != nil {
			log.Printf("hqsd: shutdown: %v", err)
		}
		if st != nil {
			if err := st.Close(); err != nil {
				log.Printf("hqsd: closing store: %v", err)
			}
		}
	}()

	log.Printf("hqsd: listening on %s (workers %d, queue %d, engine %s)", *addr, *workers, *queueCap, eng)
	if err := httpSrv.ListenAndServe(); !errors.Is(err, http.ErrServerClosed) {
		log.Fatalf("hqsd: %v", err)
	}
	<-done
	log.Print("hqsd: drained, bye")
}
