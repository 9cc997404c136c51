package faults

import (
	"errors"
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNoPlanIsNoOp(t *testing.T) {
	var p *Plan
	for _, pt := range Points() {
		if err := p.Fire(pt); err != nil {
			t.Fatalf("Fire(%s) on a nil plan = %v", pt, err)
		}
	}
}

func TestDeterministicTriggers(t *testing.T) {
	p := NewPlan(1, Rule{Point: SATSolve, Action: ActUnknown, EveryN: 3, After: 2, Times: 2})

	var fired []int
	for i := 1; i <= 14; i++ {
		if err := p.Fire(SATSolve); err != nil {
			if !errors.Is(err, ErrInjected) || !errors.Is(err, ErrUnknown) {
				t.Fatalf("hit %d: error %v not ErrUnknown/ErrInjected", i, err)
			}
			fired = append(fired, i)
		}
	}
	// After=2 skips hits 1-2, EveryN=3 fires on hits 5, 8, 11, ...; Times=2
	// stops after two fires.
	want := []int{5, 8}
	if len(fired) != len(want) || fired[0] != want[0] || fired[1] != want[1] {
		t.Fatalf("fired on hits %v, want %v", fired, want)
	}
	st := p.Snapshot()[SATSolve]
	if st.Hits != 14 || st.Fires != 2 {
		t.Fatalf("stats = %+v, want 14 hits / 2 fires", st)
	}
}

func TestDisarm(t *testing.T) {
	p := NewPlan(1, Rule{Point: StoreRead, Action: ActError})
	if err := p.Fire(StoreRead); !errors.Is(err, ErrInjected) {
		t.Fatalf("armed: %v, want an injected error", err)
	}
	p.Disarm()
	if err := p.Fire(StoreRead); err != nil {
		t.Fatalf("disarmed: %v, want nil", err)
	}
	if st := p.Snapshot()[StoreRead]; st.Hits != 2 || st.Fires != 1 {
		t.Fatalf("stats = %+v, want 2 hits / 1 fire", st)
	}
}

func TestProbabilisticIsSeededAndBounded(t *testing.T) {
	counts := make([]uint64, 2)
	for round := range counts {
		p := NewPlan(42, Rule{Point: CacheLookup, Action: ActError, Prob: 0.3})
		for i := 0; i < 2000; i++ {
			p.Fire(CacheLookup)
		}
		counts[round] = p.Fires(CacheLookup)
	}
	if counts[0] != counts[1] {
		t.Fatalf("same seed, different fire counts: %d vs %d", counts[0], counts[1])
	}
	// 2000 hits at p=0.3: expect ~600; allow a wide deterministic margin.
	if counts[0] < 400 || counts[0] > 800 {
		t.Fatalf("fire count %d implausible for p=0.3 over 2000 hits", counts[0])
	}
}

func TestPanicAction(t *testing.T) {
	p := NewPlan(1, Rule{Point: MaxSATSolve, Action: ActPanic})
	defer func() {
		r := recover()
		pv, ok := r.(PanicValue)
		if !ok || pv.Point != MaxSATSolve {
			t.Fatalf("recovered %v, want PanicValue at maxsat.solve", r)
		}
	}()
	p.Fire(MaxSATSolve)
	t.Fatal("Fire did not panic")
}

func TestLatencyAction(t *testing.T) {
	p := NewPlan(1, Rule{Point: AIGSweep, Action: ActLatency, Latency: 30 * time.Millisecond})
	start := time.Now()
	if err := p.Fire(AIGSweep); err != nil {
		t.Fatalf("latency action returned error %v", err)
	}
	if d := time.Since(start); d < 25*time.Millisecond {
		t.Fatalf("latency action slept only %v", d)
	}
}

func TestConcurrentFire(t *testing.T) {
	p := NewPlan(7,
		Rule{Point: SATSolve, Action: ActError, Prob: 0.5},
		Rule{Point: SATSolve, Action: ActUnknown, EveryN: 2})
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 500; i++ {
				p.Fire(SATSolve)
			}
		}()
	}
	wg.Wait()
	if st := p.Snapshot()[SATSolve]; st.Hits != 4000 {
		t.Fatalf("hits = %d, want 4000", st.Hits)
	}
}

func TestParseSpec(t *testing.T) {
	p, err := ParseSpec("sat.solve:panic:p=0.1; cache.lookup:error:every=3,times=2 ; qbf.eliminate:latency:latency=5ms", 9)
	if err != nil {
		t.Fatalf("ParseSpec: %v", err)
	}
	if p == nil || len(p.rules[SATSolve]) != 1 || len(p.rules[CacheLookup]) != 1 || len(p.rules[QBFEliminate]) != 1 {
		t.Fatalf("plan rules misparsed: %+v", p)
	}
	if r := p.rules[CacheLookup][0]; r.EveryN != 3 || r.Times != 2 || r.Action != ActError {
		t.Fatalf("cache rule = %+v", r)
	}
	if r := p.rules[QBFEliminate][0]; r.Latency != 5*time.Millisecond {
		t.Fatalf("latency rule = %+v", r)
	}

	if p, err := ParseSpec("   ", 1); p != nil || err != nil {
		t.Fatalf("empty spec: %v, %v", p, err)
	}
	for _, bad := range []string{
		"nope",
		"bogus.point:panic",
		"sat.solve:explode",
		"sat.solve:panic:p=1.5",
		"sat.solve:panic:wat",
		"sat.solve:panic:depth=3",
		"sat.solve:latency:latency=fast",
	} {
		if _, err := ParseSpec(bad, 1); err == nil {
			t.Fatalf("ParseSpec(%q) accepted", bad)
		}
	}
	// NaN passes a plain range check (both comparisons are false) and would
	// then fire on every hit; it gets the out-of-range error instead.
	for _, nan := range []string{"sat.solve:error:p=NaN", "sat.solve:error:p=nan"} {
		if _, err := ParseSpec(nan, 1); err == nil || !strings.Contains(err.Error(), "outside (0, 1]") {
			t.Fatalf("ParseSpec(%q) = %v, want the outside (0, 1] error", nan, err)
		}
	}
}
