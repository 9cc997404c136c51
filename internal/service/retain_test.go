package service

import (
	"context"
	"errors"
	"reflect"
	"runtime"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/dqbf"
	"repro/internal/problem"
)

// formulaTypes are the types a finished job must no longer reach.
var formulaTypes = map[reflect.Type]bool{
	reflect.TypeOf((*problem.Problem)(nil)): true,
	reflect.TypeOf((*dqbf.Formula)(nil)):    true,
}

// reaches reports whether a non-nil pointer of one of the target types is
// reachable from v, unexported fields included.
func reaches(v reflect.Value, targets map[reflect.Type]bool, seen map[uintptr]bool) bool {
	switch v.Kind() {
	case reflect.Pointer:
		if v.IsNil() {
			return false
		}
		if targets[v.Type()] {
			return true
		}
		if seen[v.Pointer()] {
			return false
		}
		seen[v.Pointer()] = true
		return reaches(v.Elem(), targets, seen)
	case reflect.Interface:
		return !v.IsNil() && reaches(v.Elem(), targets, seen)
	case reflect.Struct:
		for i := 0; i < v.NumField(); i++ {
			if reaches(v.Field(i), targets, seen) {
				return true
			}
		}
	case reflect.Slice, reflect.Array:
		if k := v.Type().Elem().Kind(); k <= reflect.Complex128 || k == reflect.String {
			return false
		}
		for i := 0; i < v.Len(); i++ {
			if reaches(v.Index(i), targets, seen) {
				return true
			}
		}
	case reflect.Map:
		for it := v.MapRange(); it.Next(); {
			if reaches(it.Key(), targets, seen) || reaches(it.Value(), targets, seen) {
				return true
			}
		}
	}
	return false
}

func parseProblem(t *testing.T, text string, format problem.Format) *problem.Problem {
	t.Helper()
	p, err := problem.ParseBytes([]byte(text), format)
	if err != nil {
		t.Fatalf("parse %s: %v", format, err)
	}
	return p
}

// TestFinishedJobHoldsNoFormula covers the four ways a job finishes — it
// ran, a cache hit, a store hit, a queued job flushed by a hard Drain — and
// requires that none of them still reaches the formula it solved, while its
// snapshot still reports the problem's format and kind. Hits also allocate
// no trace recorder.
func TestFinishedJobHoldsNoFormula(t *testing.T) {
	const example1 = "p cnf 4 4\na 1 2 0\nd 3 1 0\nd 4 2 0\n-3 1 0\n3 -1 0\n-4 2 0\n4 -2 0\n"
	const benchText = "INPUT(a)\nOUTPUT(o)\no = XNOR(a, f)\n"
	dq := func() *problem.Problem { return parseProblem(t, example1, problem.FormatDQDIMACS) }
	bn := func() *problem.Problem { return parseProblem(t, benchText, problem.FormatBENCH) }
	lim := Limits{Timeout: 30 * time.Second}
	st := quietStore(t, t.TempDir())
	defer st.Close()

	type finished struct {
		name, format, kind string
		job                *Job
		hit                bool
	}
	var jobs []finished
	submit := func(s *Scheduler, name string, p *problem.Problem, hit bool) *Job {
		t.Helper()
		j, err := s.Submit(Request{Problem: p, Engine: EngineHQS, Limits: lim})
		if err != nil {
			t.Fatalf("%s: submit: %v", name, err)
		}
		jobs = append(jobs, finished{name, string(p.Format), p.Kind.String(), j, hit})
		return j
	}

	s1 := NewScheduler(Config{Workers: 1, Store: st})
	for _, j := range []*Job{submit(s1, "ran dqdimacs", dq(), false), submit(s1, "ran bench", bn(), false)} {
		if out := waitDone(t, j); out.Verdict != VerdictSat || out.FromCache || out.FromStore {
			t.Fatalf("%s: %+v", j.ID(), out)
		}
	}
	if out := waitDone(t, submit(s1, "cache hit", bn(), true)); !out.FromCache {
		t.Fatalf("cache hit: %+v", out)
	}
	drainNow(t, s1)

	// A fresh scheduler has an empty memory cache, so the repeat comes from disk.
	s2 := NewScheduler(Config{Workers: 1, Store: st})
	if out := waitDone(t, submit(s2, "store hit", dq(), true)); !out.FromStore {
		t.Fatalf("store hit: %+v", out)
	}
	long := submit(s2, "cancelled while running", problem.FromDQBF(pigeonholeDQBF(11)), false)
	flushed := submit(s2, "flushed by drain", problem.FromDQBF(unsatExample()), false)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := s2.Drain(ctx); !errors.Is(err, context.Canceled) {
		t.Fatalf("hard drain: %v", err)
	}
	for _, j := range []*Job{long, flushed} {
		if out := waitDone(t, j); out.Reason != "cancelled" {
			t.Fatalf("%s after hard drain: %+v", j.ID(), out)
		}
	}

	for _, f := range jobs {
		if reaches(reflect.ValueOf(f.job), formulaTypes, map[uintptr]bool{}) {
			t.Errorf("%s: finished job %s still references its formula", f.name, f.job.ID())
		}
		info := f.job.Info()
		if info.State != StateDone || info.Format != f.format || info.Kind != f.kind || info.Engine != EngineHQS {
			t.Errorf("%s: snapshot %+v, want done, format %s, kind %s, engine hqs", f.name, info, f.format, f.kind)
		}
		if f.hit && f.job.trc != nil {
			t.Errorf("%s: a hit allocated a trace recorder", f.name)
		}
		if evs, dropped := f.job.Trace(); f.hit && (evs != nil || dropped != 0) {
			t.Errorf("%s: a hit has trace (%d events, %d dropped)", f.name, len(evs), dropped)
		}
	}
}

// TestRetainedHeapPerFinishedJob bounds what one finished job costs the
// heap once the job history is full. A certified HQS job on a small adder
// PEC instance keeps its snapshot fields, certificate and packed pass
// trace: about 3.8 KB, of which the trace is 1.7 KB and the certificate
// 0.8 KB. Keeping its formula clone and one counter map per trace event as
// well cost about 21 KB. The bound sits at least 2x from both. The growth
// is measured between a history of 100 and a full one of 512, so fixed
// costs cancel.
func TestRetainedHeapPerFinishedJob(t *testing.T) {
	if testing.Short() {
		t.Skip("solves 612 instances")
	}
	const first, total = 100, 612
	insts, err := bench.Generate(bench.FamilyAdder, bench.GenOptions{Count: total, Seed: 1, MaxWidth: 3})
	if err != nil {
		t.Fatal(err)
	}
	s := NewScheduler(Config{Workers: 1, CacheSize: -1, Certify: true})
	defer drainNow(t, s)
	run := func(insts []bench.Instance) {
		for _, in := range insts {
			j, err := s.Submit(Request{Problem: problem.FromDQBF(in.Formula), Engine: EngineHQS, Limits: Limits{Timeout: 30 * time.Second}})
			if err != nil {
				t.Fatalf("submit %s: %v", in.Name, err)
			}
			if out := waitDone(t, j); out.Verdict != VerdictSat && out.Verdict != VerdictUnsat {
				t.Fatalf("%s: %+v", in.Name, out)
			}
		}
	}
	heap := func() uint64 {
		runtime.GC()
		runtime.GC() // the second cycle also empties sync.Pool victim caches
		var ms runtime.MemStats
		runtime.ReadMemStats(&ms)
		return ms.HeapAlloc
	}
	run(insts[:first])
	h1, n1 := heap(), s.Stats().HistoryLen
	run(insts[first:])
	h2, n2 := heap(), s.Stats().HistoryLen
	if n1 != first || n2 != 512 {
		t.Fatalf("history %d then %d, want %d then 512", n1, n2, first)
	}
	runtime.KeepAlive(insts) // live at both readings, so it cancels
	perJob := (float64(h2) - float64(h1)) / float64(n2-n1)
	t.Logf("retained heap: %.0f B per finished job (%d → %d B)", perJob, h1, h2)
	if perJob > 8000 {
		t.Fatalf("a finished job retains %.0f B of heap, want at most 8000", perJob)
	}
}
