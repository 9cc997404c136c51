package service

import (
	"context"
	"errors"
	"math/rand"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/dqbf"
	"repro/internal/faults"
	"repro/internal/leakcheck"
)

// withFaults builds the fault plan of spec for a test to hand to the
// scheduler (Config.Faults) or store (store.Options.Faults) it drills.
func withFaults(t *testing.T, spec string, seed int64) *faults.Plan {
	t.Helper()
	plan, err := faults.ParseSpec(spec, seed)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	return plan
}

// drainNow shuts a scheduler down at test end, failing the test if it cannot
// drain within a generous deadline.
func drainNow(t *testing.T, s *Scheduler) {
	t.Helper()
	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Errorf("drain: %v", err)
	}
}

// TestChaosSchedulerUnderFaults is the acceptance scenario of the robustness
// work: a fault plan panicking in 10% of SAT oracle calls (plus injected
// dispatch panics, cache-lookup errors, oracle errors, and spurious
// Unknowns), 200 jobs submitted from concurrent clients with concurrent
// cancellations, and a drain at the end. Every accepted job must reach a
// terminal state, no worker may die, no goroutine may leak, and the stats
// must balance.
func TestChaosSchedulerUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	leakcheck.Check(t)

	plan := withFaults(t,
		"sat.solve:panic:p=0.1;"+
			"sched.dispatch:panic:p=0.03;"+
			"cache.lookup:error:every=5;"+
			"maxsat.solve:error:p=0.05;"+
			"qbf.eliminate:unknown:p=0.02;"+
			"aig.sweep:error:p=0.2;"+
			"oracle.query:error:p=0.05",
		1)

	s := NewScheduler(Config{
		Workers:        4,
		QueueCap:       256,
		DefaultTimeout: 5 * time.Second,
		Retry:          RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		Faults:         plan,
	})

	const jobsTotal = 200
	engines := []Engine{EngineHQS, EngineIDQ, EngineExpand, EnginePortfolio}
	var (
		mu       sync.Mutex
		accepted []*Job
		rejected atomic.Int64
	)
	var wg sync.WaitGroup
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for i := 0; i < jobsTotal/4; i++ {
				var f *dqbf.Formula
				if rng.Intn(2) == 0 {
					f = paperExample1()
				} else {
					f = unsatExample()
				}
				job, err := s.Submit(request(f, engines[rng.Intn(len(engines))], Limits{}))
				if err != nil {
					if !errors.Is(err, ErrQueueFull) && !errors.Is(err, ErrDraining) {
						t.Errorf("unexpected submit error: %v", err)
					}
					rejected.Add(1)
					continue
				}
				mu.Lock()
				accepted = append(accepted, job)
				mu.Unlock()
				// Cancel a slice of the jobs mid-flight.
				if rng.Intn(10) == 0 {
					_ = s.Cancel(job.ID())
				}
			}
		}(c)
	}
	wg.Wait()

	// Every accepted job must terminate on its own (no drain assist yet).
	deadline := time.After(30 * time.Second)
	for _, job := range accepted {
		select {
		case <-job.Done():
		case <-deadline:
			t.Fatalf("job %s stuck in state %s under faults", job.ID(), job.Info().State)
		}
	}
	for _, job := range accepted {
		if st := job.Info().State; st != StateDone {
			t.Fatalf("job %s not terminal: %s", job.ID(), st)
		}
		out := job.Outcome()
		switch out.Verdict {
		case VerdictSat, VerdictUnsat, VerdictUnknown, VerdictError:
		default:
			t.Fatalf("job %s: invalid verdict %v", job.ID(), out.Verdict)
		}
	}

	// The plan must actually have hit the SAT oracle, or the test proves
	// nothing.
	if plan.Fires(faults.SATSolve) == 0 {
		t.Fatal("fault plan never fired at sat.solve")
	}

	// Worker survival: with the faults gone, one sentinel job per worker
	// must still be solved. A dead worker would leave a sentinel queued.
	plan.Disarm()
	sentinels := make([]*Job, 0, 4)
	for i := 0; i < 4; i++ {
		job, err := s.Submit(request(pigeonholeDQBF(2), EngineHQS, Limits{}))
		if err != nil {
			t.Fatalf("sentinel submit: %v", err)
		}
		sentinels = append(sentinels, job)
	}
	for _, job := range sentinels {
		select {
		case <-job.Done():
		case <-time.After(10 * time.Second):
			t.Fatal("sentinel job stuck: a worker died during the chaos run")
		}
		if out := job.Outcome(); out.Verdict != VerdictUnsat && !out.FromCache {
			t.Fatalf("sentinel verdict = %v (%s), want UNSAT", out.Verdict, out.Reason)
		}
	}

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Second)
	defer cancel()
	if err := s.Drain(ctx); err != nil {
		t.Fatalf("drain: %v", err)
	}

	st := s.Stats()
	if st.Submitted != int64(len(accepted)+len(sentinels)) {
		t.Errorf("stats.Submitted = %d, want %d", st.Submitted, len(accepted)+len(sentinels))
	}
	if st.Completed != st.Submitted {
		t.Errorf("stats: %d submitted but %d completed — jobs lost", st.Submitted, st.Completed)
	}
	if st.Solved+st.Unknown+st.Errors != st.Completed {
		t.Errorf("stats don't balance: solved %d + unknown %d + errors %d != completed %d",
			st.Solved, st.Unknown, st.Errors, st.Completed)
	}
	if st.Running != 0 || st.Queued != 0 {
		t.Errorf("post-drain stats: running=%d queued=%d, want 0/0", st.Running, st.Queued)
	}
	t.Logf("chaos stats: %+v", st)
	t.Logf("fault fires: sat.solve=%d dispatch=%d cache=%d",
		plan.Fires(faults.SATSolve), plan.Fires(faults.SchedDispatch), plan.Fires(faults.CacheLookup))
}

// TestChaosDrainUnderFaults drains while faults are still active and
// submitters are still hammering: Drain must return, every job accepted
// before or during the drain must be terminal, and nothing may leak.
func TestChaosDrainUnderFaults(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	leakcheck.Check(t)

	s := NewScheduler(Config{
		Workers:        3,
		QueueCap:       16,
		DefaultTimeout: 5 * time.Second,
		Retry:          RetryPolicy{MaxAttempts: 2, BaseDelay: time.Millisecond, MaxDelay: 4 * time.Millisecond},
		Faults:         withFaults(t, "sat.solve:panic:p=0.15;sched.dispatch:error:p=0.1", 7),
	})

	var (
		mu       sync.Mutex
		accepted []*Job
	)
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for c := 0; c < 3; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				job, err := s.Submit(request(paperExample1(), EnginePortfolio, Limits{}))
				if err != nil {
					if errors.Is(err, ErrDraining) {
						return
					}
					if !errors.Is(err, ErrQueueFull) {
						t.Errorf("unexpected submit error: %v", err)
						return
					}
					continue
				}
				mu.Lock()
				accepted = append(accepted, job)
				mu.Unlock()
			}
		}(c)
	}

	time.Sleep(20 * time.Millisecond) // let the storm build
	ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
	defer cancel()
	err := s.Drain(ctx)
	close(stop)
	wg.Wait()
	if err != nil {
		t.Fatalf("drain: %v", err)
	}

	for _, job := range accepted {
		select {
		case <-job.Done():
		case <-time.After(time.Second):
			t.Fatalf("job %s not terminal after drain", job.ID())
		}
	}
	if _, err := s.Submit(request(paperExample1(), EngineHQS, Limits{})); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit error = %v, want ErrDraining", err)
	}
	st := s.Stats()
	if st.Completed != st.Submitted {
		t.Errorf("stats: %d submitted but %d completed", st.Submitted, st.Completed)
	}
}

// TestChaosTwoPlansOneProcess runs two schedulers side by side in one
// process: one armed to fail every dispatch, one with no plan. A plan
// belongs to the scheduler it is handed to, so every job on the armed
// scheduler ends in ERROR, every job on the other gets the brute-force
// verdict, and the armed plan counts its own scheduler's jobs and no more.
func TestChaosTwoPlansOneProcess(t *testing.T) {
	leakcheck.Check(t)
	rng := rand.New(rand.NewSource(5))
	formulas := make([]*dqbf.Formula, 12)
	want := make([]Verdict, len(formulas))
	for i := range formulas {
		formulas[i] = dqbf.RandomFormula(rng, 2, 3, 4)
		sat, err := dqbf.BruteForce(formulas[i])
		if err != nil {
			t.Fatalf("brute force %d: %v", i, err)
		}
		want[i] = VerdictUnsat
		if sat {
			want[i] = VerdictSat
		}
	}
	solveAll := func(t *testing.T, plan *faults.Plan) []Outcome {
		s := NewScheduler(Config{Workers: 2, CacheSize: -1, DefaultTimeout: 30 * time.Second, Faults: plan})
		defer drainNow(t, s)
		jobs := make([]*Job, len(formulas))
		for i, f := range formulas {
			job, err := s.Submit(request(f, EngineHQS, Limits{}))
			if err != nil {
				t.Fatalf("submit %d: %v", i, err)
			}
			jobs[i] = job
		}
		outs := make([]Outcome, len(jobs))
		for i, job := range jobs {
			outs[i] = waitDone(t, job)
		}
		return outs
	}

	armed := withFaults(t, "sched.dispatch:error:every=1", 1)
	t.Run("armed", func(t *testing.T) {
		t.Parallel()
		for i, out := range solveAll(t, armed) {
			if out.Verdict != VerdictError || !strings.Contains(out.Error, "dispatch failed") {
				t.Errorf("job %d: %v (%s), want the injected dispatch ERROR", i, out.Verdict, out.Error)
			}
		}
		if st := armed.Snapshot()[faults.SchedDispatch]; st.Hits != uint64(len(formulas)) || st.Fires != st.Hits {
			t.Errorf("armed plan at sched.dispatch: %+v, want %d hits, all fired", st, len(formulas))
		}
	})
	t.Run("plain", func(t *testing.T) {
		t.Parallel()
		for i, out := range solveAll(t, nil) {
			if out.Verdict != want[i] {
				t.Errorf("job %d: %v (%s), brute force says %v", i, out.Verdict, out.Error, want[i])
			}
		}
	})
}

// TestDrainRaceRejectsOrRuns is the regression test for the Submit/Drain
// race: a submission racing a hard drain must either be rejected with
// ErrDraining or be accepted and reach a terminal state — never accepted and
// then silently dropped.
func TestDrainRaceRejectsOrRuns(t *testing.T) {
	leakcheck.Check(t)
	for round := 0; round < 8; round++ {
		s := NewScheduler(Config{
			Workers:        2,
			QueueCap:       4,
			DefaultTimeout: 2 * time.Second,
		})
		var (
			mu       sync.Mutex
			accepted []*Job
		)
		var wg sync.WaitGroup
		start := make(chan struct{})
		for c := 0; c < 4; c++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				<-start
				for i := 0; i < 32; i++ {
					job, err := s.Submit(request(unsatExample(), EngineIDQ, Limits{}))
					if err != nil {
						if !errors.Is(err, ErrDraining) && !errors.Is(err, ErrQueueFull) {
							t.Errorf("submit: %v", err)
						}
						continue
					}
					mu.Lock()
					accepted = append(accepted, job)
					mu.Unlock()
				}
			}()
		}
		// A short deadline forces the hard-drain path that flushes the queue.
		ctx, cancel := context.WithTimeout(context.Background(), time.Millisecond)
		close(start)
		err := s.Drain(ctx)
		cancel()
		wg.Wait()
		if err != nil && !errors.Is(err, context.DeadlineExceeded) {
			t.Fatalf("drain: %v", err)
		}

		for _, job := range accepted {
			select {
			case <-job.Done():
			case <-time.After(5 * time.Second):
				t.Fatalf("round %d: accepted job %s never reached a terminal state", round, job.ID())
			}
			// Flushed jobs must be queryable in history, not forgotten.
			if _, ok := s.Job(job.ID()); !ok {
				t.Fatalf("round %d: finished job %s missing from history", round, job.ID())
			}
		}
		st := s.Stats()
		if st.Completed != st.Submitted {
			t.Fatalf("round %d: %d submitted, %d completed", round, st.Submitted, st.Completed)
		}
	}
}
