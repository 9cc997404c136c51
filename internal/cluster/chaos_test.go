package cluster

// Cluster chaos drills: a worker dying mid-batch, forwards dropped by a
// flaky transport, dispatch faults inside a worker, and the UNSAT cube short
// circuit cancelling in-flight siblings. A drill that faults the workers
// hands one plan to every worker's scheduler config, so the plan counts its
// hits across the whole cluster.

import (
	"context"
	"errors"
	"math/rand"
	"net/http"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dqbf"
	"repro/internal/faults"
	"repro/internal/problem"
	"repro/internal/service"
)

// TestClusterWorkerKillMidBatch kills one worker's listener halfway through
// a batch and requires every remaining instance to fail over to a ring
// successor with the verdict unchanged — no job lost, none stuck.
func TestClusterWorkerKillMidBatch(t *testing.T) {
	ws := startWorkers(t, 3, defaultWorkerConfig())
	c := newCoordinator(t, ws, nil)

	rng := rand.New(rand.NewSource(17))
	formulas := make([]*dqbf.Formula, 12)
	want := make([]service.Verdict, len(formulas))
	for i := range formulas {
		formulas[i] = dqbf.RandomFormula(rng, 2, 3, 5)
		want[i] = serialVerdict(t, formulas[i])
	}
	// The victim is the home node of a post-kill instance, so at least one
	// forward is guaranteed to land on the dead worker and fail over.
	victim := c.ring.order(problem.FromDQBF(formulas[8]).CanonicalHash())[0]

	for i, f := range formulas {
		if i == 6 {
			ws[victim].srv.Close()
		}
		res := clusterSolve(t, c, f, service.EngineIDQ, false)
		if got := res.Info.Outcome.Verdict; got != want[i] {
			t.Fatalf("instance %d: cluster says %s, serial says %s (victim %d)", i, got, want[i], victim)
		}
	}
	if got := c.coordStats().Failovers; got == 0 {
		t.Fatal("no failover recorded after killing a worker")
	}
	// The survivors must be fully settled: everything submitted completed.
	for i, w := range ws {
		if i == victim {
			continue
		}
		st := w.sched.Stats()
		if st.Submitted != st.Completed {
			t.Fatalf("worker %d: %d submitted but %d completed", i, st.Submitted, st.Completed)
		}
		if st.Queued != 0 || st.Running != 0 {
			t.Fatalf("worker %d left work behind: %d queued, %d running", i, st.Queued, st.Running)
		}
	}
}

// flakyTransport fails every nth POST before it leaves the coordinator, as
// a dropped connection would; other requests pass through.
type flakyTransport struct {
	every        int64
	posts, fails atomic.Int64
}

func (f *flakyTransport) RoundTrip(r *http.Request) (*http.Response, error) {
	if r.Method == http.MethodPost && f.posts.Add(1)%f.every == 0 {
		f.fails.Add(1)
		if r.Body != nil {
			r.Body.Close()
		}
		return nil, errors.New("flaky transport: connection dropped")
	}
	return http.DefaultTransport.RoundTrip(r)
}

// TestClusterForwardFaultDrill makes every third forward die before the
// request leaves the coordinator, and requires the ring walk to absorb every
// failure without changing a verdict.
func TestClusterForwardFaultDrill(t *testing.T) {
	ws := startWorkers(t, 2, defaultWorkerConfig())
	flaky := &flakyTransport{every: 3}
	c := newCoordinator(t, ws, func(cfg *Config) { cfg.Client = &http.Client{Transport: flaky} })

	rng := rand.New(rand.NewSource(23))
	for i := 0; i < 9; i++ {
		f := dqbf.RandomFormula(rng, 2, 3, 4)
		want := serialVerdict(t, f)
		res := clusterSolve(t, c, f, service.EngineIDQ, false)
		if got := res.Info.Outcome.Verdict; got != want {
			t.Fatalf("instance %d: cluster says %s, serial says %s", i, got, want)
		}
	}
	if fails := flaky.fails.Load(); fails < 2 {
		t.Fatalf("transport failed %d forwards, want >= 2", fails)
	}
	if got := c.coordStats().Failovers; got < 2 {
		t.Fatalf("%d failovers recorded, want >= 2", got)
	}
}

// TestClusterRetryDoesNotDoubleCount is the cluster-level regression for the
// retried-submit accounting fix: resubmitting the same logical request — the
// coordinator's idempotency key is constant across ring retries — must reuse
// the worker's job instead of double-running and double-counting it.
func TestClusterRetryDoesNotDoubleCount(t *testing.T) {
	ws := startWorkers(t, 2, defaultWorkerConfig())
	c := newCoordinator(t, ws, nil)

	f := paperExample1Wide()
	for i := 0; i < 2; i++ {
		res := clusterSolve(t, c, f, service.EngineIDQ, false)
		if got := res.Info.Outcome.Verdict; got != service.VerdictSat {
			t.Fatalf("solve %d: verdict %s, want SAT", i, got)
		}
	}
	st := c.Stats(context.Background())
	if st.Totals.Submitted != 1 {
		t.Fatalf("ring counted %d submissions for one logical job", st.Totals.Submitted)
	}
	if st.Totals.Completed != 1 {
		t.Fatalf("ring counted %d completions for one logical job", st.Totals.Completed)
	}
	if st.Totals.IdemHits != 1 {
		t.Fatalf("ring counted %d idempotency hits, want 1", st.Totals.IdemHits)
	}
}

// TestClusterAsyncJobLifecycle drives the /jobs forwarding surface: submit
// is idempotent across resends, the cluster job ID routes back to the owning
// worker, and the certificate attachment survives the proxy hop.
func TestClusterAsyncJobLifecycle(t *testing.T) {
	ws := startWorkers(t, 3, defaultWorkerConfig())
	c := newCoordinator(t, ws, nil)
	ctx := context.Background()

	p := problem.FromDQBF(paperExample1Wide())
	info, err := c.SubmitJob(ctx, p, service.EngineIDQ, service.Limits{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("SubmitJob: %v", err)
	}
	again, err := c.SubmitJob(ctx, p, service.EngineIDQ, service.Limits{Timeout: 30 * time.Second})
	if err != nil {
		t.Fatalf("resubmit: %v", err)
	}
	if info.ID != again.ID {
		t.Fatalf("resubmit created a second job: %s then %s", info.ID, again.ID)
	}

	deadline := time.Now().Add(10 * time.Second)
	var done service.JobInfo
	var certBlob string
	for {
		var status int
		done, certBlob, status, err = c.GetJob(ctx, info.ID, true)
		if err != nil {
			t.Fatalf("GetJob: %v (status %d)", err, status)
		}
		if done.State == service.StateDone {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job %s never finished: %+v", info.ID, done)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if done.ID != info.ID {
		t.Fatalf("snapshot ID %s, want %s", done.ID, info.ID)
	}
	if done.Outcome == nil || done.Outcome.Verdict != service.VerdictSat {
		t.Fatalf("job outcome %+v, want SAT", done.Outcome)
	}
	if certBlob == "" {
		t.Fatal("certificate attachment lost across the proxy hop")
	}

	raw, status, err := c.GetTrace(ctx, info.ID)
	if err != nil || status != 200 {
		t.Fatalf("GetTrace: status %d err %v", status, err)
	}
	if len(raw) == 0 {
		t.Fatal("empty trace payload")
	}

	if _, _, err := c.splitJobID("no-prefix"); err == nil {
		t.Fatal("malformed job ID accepted")
	}
	if _, _, status, err := c.GetJob(ctx, "w0:nonexistent", false); err == nil || status != 404 {
		t.Fatalf("missing job: status %d err %v", status, err)
	}
}

// TestClusterDispatchFaultContained arms a one-shot sched.dispatch fault
// inside a worker: the job must come back as a clean ERROR verdict through
// the cluster path — contained, not lost, not hanging the coordinator.
func TestClusterDispatchFaultContained(t *testing.T) {
	plan := faults.NewPlan(1, faults.Rule{
		Point:  faults.SchedDispatch,
		Action: faults.ActError,
		Times:  1,
	})
	cfg := defaultWorkerConfig()
	cfg.Faults = plan
	ws := startWorkers(t, 2, cfg)
	c := newCoordinator(t, ws, nil)

	res := clusterSolve(t, c, paperExample1Wide(), service.EngineIDQ, false)
	if got := res.Info.Outcome.Verdict; got != service.VerdictError {
		t.Fatalf("verdict %s, want ERROR from the injected dispatch fault", got)
	}
	if plan.Fires(faults.SchedDispatch) != 1 {
		t.Fatalf("dispatch fault fired %d times, want 1", plan.Fires(faults.SchedDispatch))
	}
	// Resubmitting the SAME instance reuses the errored job — the
	// idempotency key pins the logical submission, failure included.
	res = clusterSolve(t, c, paperExample1Wide(), service.EngineIDQ, false)
	if got := res.Info.Outcome.Verdict; got != service.VerdictError {
		t.Fatalf("idempotent resubmit returned %s, want the original ERROR", got)
	}
	// But the worker pool itself survived: a fresh instance solves fine.
	g := dqbf.New()
	g.AddUniversal(1)
	g.AddExistential(2, 1)
	g.Matrix.AddDimacsClause(-2, 1)
	g.Matrix.AddDimacsClause(2, -1)
	res = clusterSolve(t, c, g, service.EngineIDQ, false)
	if got := res.Info.Outcome.Verdict; got != service.VerdictSat {
		t.Fatalf("verdict after recovery %s, want SAT", got)
	}
}

// TestClusterUnsatCubeCancelsSiblings pins the short-circuit contract: the
// first UNSAT cube must cancel the in-flight sibling forwards, observable in
// the coordinator's counters AND in the worker's budget-cancellation
// counter. A single-threaded worker plus an injected latency on EVERY
// dispatch makes the race deterministic: cube A sleeps in dispatch long
// enough for cube B's submit to land in the queue, then A solves UNSAT while
// B is still queued, so B can only finish cancelled.
func TestClusterUnsatCubeCancelsSiblings(t *testing.T) {
	cfg := defaultWorkerConfig()
	cfg.Workers = 1
	cfg.Faults = faults.NewPlan(1, faults.Rule{
		Point:   faults.SchedDispatch,
		Action:  faults.ActLatency,
		Latency: 250 * time.Millisecond,
	})
	ws := startWorkers(t, 1, cfg)
	c := newCoordinator(t, ws, func(cfg *Config) { cfg.CubeVars = 1 })

	// ∀x ∃y(x). y ∧ ¬y — UNSAT in both cofactors, instantly.
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddExistential(2, 1)
	f.Matrix.AddDimacsClause(2)
	f.Matrix.AddDimacsClause(-2)

	res := clusterSolve(t, c, f, service.EngineIDQ, false)
	if got := res.Info.Outcome.Verdict; got != service.VerdictUnsat {
		t.Fatalf("verdict %s, want UNSAT", got)
	}
	if res.Cubes != 2 {
		t.Fatalf("fan of %d cubes, want 2", res.Cubes)
	}
	cs := c.coordStats()
	if cs.CubeUnsatShortCircuits != 1 {
		t.Fatalf("%d short circuits recorded, want 1", cs.CubeUnsatShortCircuits)
	}
	if cs.CubeSiblingsCancelled < 1 {
		t.Fatal("no sibling recorded as cancelled")
	}
	// The worker must see the cancellation as a budget cancel, not a loss:
	// both cubes were submitted, and the sibling finishes with the cancelled
	// accounting.
	deadline := time.Now().Add(10 * time.Second)
	for {
		st := ws[0].sched.Stats()
		if st.Cancelled >= 1 && st.Submitted == 2 && st.Submitted == st.Completed {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("sibling never settled as cancelled: %+v", st)
		}
		time.Sleep(10 * time.Millisecond)
	}
}

// TestClusterSplitAfterEscalation pins the budget-based escalation: the
// budgeted single-worker attempt comes back non-definitive (a one-shot
// dispatch fault turns it into ERROR), so the coordinator escalates to the
// cube fan and still lands the exact verdict with a checked certificate.
func TestClusterSplitAfterEscalation(t *testing.T) {
	cfg := defaultWorkerConfig()
	cfg.Faults = faults.NewPlan(1, faults.Rule{
		Point:  faults.SchedDispatch,
		Action: faults.ActError,
		Times:  1,
	})
	ws := startWorkers(t, 2, cfg)
	c := newCoordinator(t, ws, func(cfg *Config) {
		cfg.CubeVars = 1
		cfg.SplitAfter = 10 * time.Second
	})

	f := paperExample1Wide()
	res := clusterSolve(t, c, f, service.EngineIDQ, true)
	if got := res.Info.Outcome.Verdict; got != service.VerdictSat {
		t.Fatalf("verdict %s, want SAT", got)
	}
	cs := c.coordStats()
	if cs.Escalations != 1 {
		t.Fatalf("%d escalations recorded, want 1", cs.Escalations)
	}
	if cs.CubeSplits != 1 {
		t.Fatalf("%d cube fans recorded, want 1", cs.CubeSplits)
	}
	if res.Cert == nil {
		t.Fatal("escalated fan returned no certificate")
	}
}
