package cluster

// The forward path's cost and the cube fan's placement, counted at the
// workers: every test worker's handler is wrapped in a requestLog, so a test
// sees how many round trips each forward made, which worker was probed, and
// how many cubes each worker was sent. A requestLog can also freeze its
// worker, which then answers nothing, like a stopped process.

import (
	"context"
	"io"
	"math/rand"
	"net/http"
	"slices"
	"sync"
	"testing"
	"time"

	"repro/internal/cert"
	"repro/internal/cnf"
	"repro/internal/cube"
	"repro/internal/dqbf"
	"repro/internal/problem"
	"repro/internal/service"
)

const (
	routeSolve   = "POST /solve"
	routeReadyz  = "GET /readyz"
	routeHealthz = "GET /healthz"
)

// requestLog counts one worker's requests by "METHOD /path". While frozen,
// the worker counts each request and then holds it unanswered until it is
// thawed or the client gives up.
type requestLog struct {
	mu     sync.Mutex
	counts map[string]int
	frozen chan struct{}
}

func newRequestLog() *requestLog { return &requestLog{counts: make(map[string]int)} }

func (l *requestLog) wrap(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		l.mu.Lock()
		l.counts[r.Method+" "+r.URL.Path]++
		frozen := l.frozen
		l.mu.Unlock()
		if frozen != nil {
			// Read the body so the server notices a client disconnect.
			io.Copy(io.Discard, r.Body)
			select {
			case <-frozen:
			case <-r.Context().Done():
				return
			}
		}
		h.ServeHTTP(w, r)
	})
}

// freeze stops the worker answering until the returned thaw is called.
func (l *requestLog) freeze() (thaw func()) {
	ch := make(chan struct{})
	l.mu.Lock()
	l.frozen = ch
	l.mu.Unlock()
	return sync.OnceFunc(func() {
		l.mu.Lock()
		l.frozen = nil
		l.mu.Unlock()
		close(ch)
	})
}

func (l *requestLog) count(route string) int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.counts[route]
}

// total is every request the worker has served.
func (l *requestLog) total() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	n := 0
	for _, c := range l.counts {
		n += c
	}
	return n
}

// ringCount sums one route's requests over the ring.
func ringCount(ws []testWorker, route string) int {
	n := 0
	for _, w := range ws {
		n += w.reqs.count(route)
	}
	return n
}

// TestClusterOneRequestPerForward pins the forward path's cost on a healthy
// ring: one POST per plain solve and one per cube, and no /readyz probe.
func TestClusterOneRequestPerForward(t *testing.T) {
	ws := startWorkers(t, 2, defaultWorkerConfig())
	c := newCoordinator(t, ws, nil)

	rng := rand.New(rand.NewSource(3))
	const n = 6
	for i := 0; i < n; i++ {
		clusterSolve(t, c, dqbf.RandomFormula(rng, 2, 3, 4), service.EngineIDQ, false)
	}
	if got := ringCount(ws, routeSolve); got != n {
		t.Fatalf("%d plain solves made %d POST /solve, want %d", n, got, n)
	}
	if got := ringCount(ws, routeReadyz); got != 0 {
		t.Fatalf("%d plain solves made %d /readyz probes, want 0", n, got)
	}

	c = newCoordinator(t, ws, func(cfg *Config) { cfg.CubeVars = 2 })
	res := clusterSolve(t, c, paperExample1Wide(), service.EngineIDQ, true)
	if res.Info.Outcome.Verdict != service.VerdictSat || res.Cubes != 4 {
		t.Fatalf("fan: %s over %d cubes, want SAT over 4", res.Info.Outcome.Verdict, res.Cubes)
	}
	if got := ringCount(ws, routeSolve) - n; got != 4 {
		t.Fatalf("a 4-cube fan made %d POST /solve, want 4", got)
	}
	if got := ringCount(ws, routeReadyz); got != 0 {
		t.Fatalf("a 4-cube fan made %d /readyz probes, want 0", got)
	}
	if got := c.coordStats().Failovers; got != 0 {
		t.Fatalf("%d failovers on a healthy ring", got)
	}
}

// failoverToSuccessor solves Example 1 on a ring whose home node for it
// refuses work, and requires the serial verdict, at least one failover, and
// the probe on the successor only: the home node is tried directly, and its
// refusal is the failover signal.
func failoverToSuccessor(t *testing.T, ws []testWorker, c *Coordinator, home int) {
	t.Helper()
	f := paperExample1Wide()
	want := serialVerdict(t, f)
	res := clusterSolve(t, c, f, service.EngineIDQ, false)
	if got := res.Info.Outcome.Verdict; got != want {
		t.Fatalf("cluster says %s, serial says %s", got, want)
	}
	if got := c.coordStats().Failovers; got < 1 {
		t.Fatalf("%d failovers recorded, want >= 1", got)
	}
	succ := c.ring.order(problem.FromDQBF(f).CanonicalHash())[1]
	if got := ws[home].reqs.count(routeReadyz); got != 0 {
		t.Fatalf("home node probed %d times, want 0", got)
	}
	if got := ws[home].reqs.count(routeSolve); got != 1 {
		t.Fatalf("home node got %d POST /solve, want the one direct try", got)
	}
	if got := ws[succ].reqs.count(routeReadyz); got != 1 {
		t.Fatalf("successor probed %d times, want 1", got)
	}
}

// TestClusterFailoverFromDrainingHome: a draining home node answers the
// direct try with 503, and the forward moves on to the probed successor.
func TestClusterFailoverFromDrainingHome(t *testing.T) {
	ws := startWorkers(t, 2, defaultWorkerConfig())
	c := newCoordinator(t, ws, nil)
	home := c.ring.order(problem.FromDQBF(paperExample1Wide()).CanonicalHash())[0]
	if err := ws[home].sched.Drain(context.Background()); err != nil {
		t.Fatalf("drain: %v", err)
	}
	failoverToSuccessor(t, ws, c, home)
}

// pigeonhole is PHP(p, p-1) as a DQBF without universals: unsatisfiable, and
// slow enough to hold a worker for the length of a test.
func pigeonhole(p int) *dqbf.Formula {
	f := dqbf.New()
	hole := func(i, j int) cnf.Var { return cnf.Var(i*(p-1) + j + 1) }
	for i := 0; i < p; i++ {
		for j := 0; j < p-1; j++ {
			f.AddExistential(hole(i, j))
		}
	}
	for i := 0; i < p; i++ {
		var c []int
		for j := 0; j < p-1; j++ {
			c = append(c, int(hole(i, j)))
		}
		f.Matrix.AddDimacsClause(c...)
	}
	for j := 0; j < p-1; j++ {
		for i := 0; i < p; i++ {
			for k := i + 1; k < p; k++ {
				f.Matrix.AddDimacsClause(-int(hole(i, j)), -int(hole(k, j)))
			}
		}
	}
	return f
}

// TestClusterFailoverFromSaturatedHome: a home node whose one worker and one
// queue slot are held by slow jobs answers the direct try with 429, and the
// forward moves on to the probed successor.
func TestClusterFailoverFromSaturatedHome(t *testing.T) {
	cfg := defaultWorkerConfig()
	cfg.Workers, cfg.QueueCap = 1, 1
	ws := startWorkers(t, 2, cfg)
	c := newCoordinator(t, ws, nil)
	home := c.ring.order(problem.FromDQBF(paperExample1Wide()).CanonicalHash())[0]

	sched := ws[home].sched
	var held []string
	t.Cleanup(func() {
		for _, id := range held {
			sched.Cancel(id)
		}
	})
	slow := problem.FromDQBF(pigeonhole(9))
	deadline := time.Now().Add(5 * time.Second)
	for sched.QueueFree() > 0 {
		if time.Now().After(deadline) {
			t.Fatal("home node never saturated")
		}
		// The queue may momentarily free a slot while the worker dequeues:
		// keep topping it up until the worker and the slot are both held.
		if job, err := sched.Submit(service.Request{Problem: slow, Engine: service.EngineHQS}); err == nil {
			held = append(held, job.ID())
		}
		time.Sleep(5 * time.Millisecond)
	}
	failoverToSuccessor(t, ws, c, home)
	if got := sched.Stats().Rejected; got < 1 {
		t.Fatalf("home node rejected %d submissions, want the direct try shed", got)
	}
}

// TestClusterFailoverFromFrozenHome: a home node that answers nothing, not
// even /healthz, is given up one probe timeout after the direct try plus
// one for the /healthz check, and the forward moves on to the probed
// successor instead of waiting on the frozen worker.
func TestClusterFailoverFromFrozenHome(t *testing.T) {
	ws := startWorkers(t, 2, defaultWorkerConfig())
	c := newCoordinator(t, ws, func(cfg *Config) { cfg.ProbeTimeout = 50 * time.Millisecond })
	home := c.ring.order(problem.FromDQBF(paperExample1Wide()).CanonicalHash())[0]
	t.Cleanup(ws[home].reqs.freeze())
	failoverToSuccessor(t, ws, c, home)
	if got := ws[home].reqs.count(routeHealthz); got != 1 {
		t.Fatalf("frozen home node asked for /healthz %d times, want 1", got)
	}
}

// satWide returns n widened random formulas with univ universals that are
// SAT, so every cube of a k=2 fan is SAT and no fan is short-circuited.
func satWide(t *testing.T, n, univ int) []*dqbf.Formula {
	t.Helper()
	rng := rand.New(rand.NewSource(11))
	var out []*dqbf.Formula
	for len(out) < n {
		f := wideDeps(dqbf.RandomFormula(rng, univ, 3, 4))
		if serialVerdict(t, f) == service.VerdictSat {
			out = append(out, f)
		}
	}
	return out
}

// equalCubes is ∀x1∀x2 ∃y(x1,x2). y ↔ ¬x1: the matrix ignores x2, so its
// k=2 cubes come in equal-hash pairs.
func equalCubes() *dqbf.Formula {
	f := dqbf.New()
	f.AddUniversal(1)
	f.AddUniversal(2)
	f.AddExistential(3, 1, 2)
	f.Matrix.AddDimacsClause(3, 1)
	f.Matrix.AddDimacsClause(-3, -1)
	return f
}

// TestClusterFanBalanced: a k=2 fan sends exactly 2 cubes to each of 2
// workers, and at most 2 to any of 3, equal-hash cubes included.
func TestClusterFanBalanced(t *testing.T) {
	formulas := append(satWide(t, 5, 2), paperExample1Wide(), equalCubes())
	for _, tc := range []struct{ workers, most, least int }{{2, 2, 2}, {3, 2, 1}} {
		ws := startWorkers(t, tc.workers, defaultWorkerConfig())
		c := newCoordinator(t, ws, func(cfg *Config) { cfg.CubeVars = 2 })
		for i, f := range formulas {
			before := make([]int, len(ws))
			for w := range ws {
				before[w] = ws[w].reqs.count(routeSolve)
			}
			res := clusterSolve(t, c, f, service.EngineIDQ, true)
			if res.Info.Outcome.Verdict != service.VerdictSat || res.Cubes != 4 {
				t.Fatalf("%d workers, formula %d: %s over %d cubes, want SAT over 4",
					tc.workers, i, res.Info.Outcome.Verdict, res.Cubes)
			}
			for w := range ws {
				got := ws[w].reqs.count(routeSolve) - before[w]
				if got > tc.most || got < tc.least {
					t.Fatalf("%d workers, formula %d: worker %d got %d cubes, want %d..%d",
						tc.workers, i, w, got, tc.least, tc.most)
				}
			}
		}
	}
}

// reorderedUniv lists f's universals in reverse. The canonical hash stays
// the same, but cube.Split takes the eligible universals in prefix order, so
// a fan of the copy numbers its cubes differently and, with more eligible
// universals than cube variables, splits on other variables.
func reorderedUniv(f *dqbf.Formula) *dqbf.Formula {
	g := f.Clone()
	slices.Reverse(g.Univ)
	return g
}

// TestClusterFanReorderedCopy: a formula and its copy with the universals
// reversed share one canonical hash but not their cubes. Fanned one after
// the other over the same ring, each must answer SAT with a certificate the
// checker accepts, so no cube of the copy may be answered with a job of one
// of the original's cubes: a cube's idempotency key must name the cube
// itself. With three eligible universals and k=2 the copy splits on other
// variables; on one worker every cube of the copy meets the original's.
func TestClusterFanReorderedCopy(t *testing.T) {
	formulas := append(satWide(t, 2, 2), satWide(t, 2, 3)...)
	formulas = append(formulas, paperExample1Wide(), equalCubes())
	for _, f := range formulas[2:4] {
		if slices.Equal(cube.Split(f, 2, nil).Vars, cube.Split(reorderedUniv(f), 2, nil).Vars) {
			t.Fatalf("the reordered copy of %v splits on the same variables", f.Univ)
		}
	}
	for _, n := range []int{1, 2, 3} {
		ws := startWorkers(t, n, defaultWorkerConfig())
		c := newCoordinator(t, ws, func(cfg *Config) { cfg.CubeVars = 2 })
		for i, f := range formulas {
			for k, h := range []*dqbf.Formula{f, reorderedUniv(f)} {
				res := clusterSolve(t, c, h, service.EngineIDQ, true)
				if res.Info.Outcome.Verdict != service.VerdictSat || res.Cubes != 4 {
					t.Fatalf("%d workers, formula %d, copy %d: %s (%s) over %d cubes, want SAT over 4",
						n, i, k, res.Info.Outcome.Verdict, res.Info.Outcome.Reason, res.Cubes)
				}
				if err := cert.Check(h, res.Cert); err != nil {
					t.Fatalf("%d workers, formula %d, copy %d: certificate rejected: %v", n, i, k, err)
				}
			}
		}
	}
}

// BenchmarkClusterSolve measures the coordinator layer over two in-process
// single-slot workers: a plain forward of paper Example 1 and a k=2 fan of
// its widened form with certificate merge and re-check. Repeats of one
// instance are answered from the worker's idempotency table, so ns/op is
// the coordinator's share plus the HTTP round trips; worker-reqs/op counts
// those round trips.
func BenchmarkClusterSolve(b *testing.B) {
	example1 := paperExample1Wide()
	example1.Deps[3] = dqbf.NewVarSet(1)
	example1.Deps[4] = dqbf.NewVarSet(2)
	cfg := defaultWorkerConfig()
	cfg.Workers = 1
	cfg.Certify = true
	for _, bc := range []struct {
		name  string
		f     *dqbf.Formula
		cubes int
	}{{"plain", example1, 0}, {"fan", paperExample1Wide(), 4}} {
		b.Run(bc.name, func(b *testing.B) {
			ws := startWorkers(b, 2, cfg)
			c := newCoordinator(b, ws, func(cfg *Config) { cfg.CubeVars = 2 })
			p := problem.FromDQBF(bc.f)
			lim := service.Limits{Timeout: 30 * time.Second}
			before := ws[0].reqs.total() + ws[1].reqs.total()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := c.Solve(context.Background(), p, service.EngineHQS, lim, true)
				if err != nil {
					b.Fatal(err)
				}
				if res.Info.Outcome == nil || res.Info.Outcome.Verdict != service.VerdictSat || res.Cubes != bc.cubes {
					b.Fatalf("got %+v over %d cubes, want SAT over %d", res.Info.Outcome, res.Cubes, bc.cubes)
				}
			}
			b.StopTimer()
			reqs := ws[0].reqs.total() + ws[1].reqs.total() - before
			b.ReportMetric(float64(reqs)/float64(b.N), "worker-reqs/op")
		})
	}
}
