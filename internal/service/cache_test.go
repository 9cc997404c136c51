package service

import (
	"fmt"
	"math/rand"
	"sync"
	"testing"
	"time"

	"repro/internal/dqbf"
	"repro/internal/problem"
)

// TestCacheConcurrentEviction hammers the LRU with concurrent Get/Put under
// eviction pressure: the size bound must hold, returned values must belong
// to the key asked for, and the race detector must stay quiet.
func TestCacheConcurrentEviction(t *testing.T) {
	const capEntries = 8
	c := newResultCache(capEntries)
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(g)))
			for i := 0; i < 500; i++ {
				key := fmt.Sprintf("k%d", rng.Intn(32)) // 32 keys > 8 slots
				if rng.Intn(2) == 0 {
					c.Put(key, Outcome{Verdict: VerdictSat, Reason: key})
				} else if out, ok := c.Get(key); ok && out.Reason != key {
					t.Errorf("Get(%q) returned entry for %q", key, out.Reason)
				}
				if l := c.Len(); l > capEntries {
					t.Errorf("cache grew to %d entries, cap is %d", l, capEntries)
				}
			}
		}(g)
	}
	wg.Wait()
	if l := c.Len(); l > capEntries {
		t.Fatalf("final cache size %d exceeds cap %d", l, capEntries)
	}
}

func TestCacheDisabled(t *testing.T) {
	c := newResultCache(-1)
	c.Put("k", Outcome{Verdict: VerdictSat})
	if _, ok := c.Get("k"); ok {
		t.Fatal("disabled cache returned a hit")
	}
	if c.Len() != 0 {
		t.Fatalf("disabled cache has %d entries", c.Len())
	}
}

// permutedPair is paper Example 1 in DQDIMACS, twice: same instance, but with
// prefix lines reordered, clauses reordered, and literals inside clauses
// flipped around.
const dqdimacsA = `p cnf 4 4
a 1 2 0
d 3 1 0
d 4 2 0
-3 1 0
3 -1 0
-4 2 0
4 -2 0
`

const dqdimacsB = `p cnf 4 4
a 2 1 0
d 4 2 0
d 3 1 0
4 -2 0
1 -3 0
2 -4 0
-1 3 0
`

func parseDQ(t *testing.T, s string) *dqbf.Formula {
	t.Helper()
	f, err := dqbf.ParseDQDIMACS([]byte(s))
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return f
}

// TestCanonicalHashPermutationInvariant checks the cache key: two
// DQDIMACS serializations of the same instance that differ only in prefix
// order, clause order, and literal order must hash identically, and an
// actually-different instance must not.
func TestCanonicalHashPermutationInvariant(t *testing.T) {
	fa := parseDQ(t, dqdimacsA)
	fb := parseDQ(t, dqdimacsB)
	ha, hb := problem.CanonicalFormulaHash(fa), problem.CanonicalFormulaHash(fb)
	if ha != hb {
		t.Fatalf("permuted serializations hash differently:\n  %s\n  %s", ha, hb)
	}
	fc := parseDQ(t, dqdimacsA)
	fc.Matrix.AddDimacsClause(1, 2)
	if problem.CanonicalFormulaHash(fc) == ha {
		t.Fatal("adding a clause did not change the hash")
	}
}

// TestSchedulerCacheHitOnPermutedInput submits an instance, then its
// permuted serialization: the second submit must be served from the cache
// without running an engine.
func TestSchedulerCacheHitOnPermutedInput(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, DefaultTimeout: 5 * time.Second})
	defer drainNow(t, s)

	j1, err := s.Submit(request(parseDQ(t, dqdimacsA), EngineHQS, Limits{}))
	if err != nil {
		t.Fatal(err)
	}
	<-j1.Done()
	if out := j1.Outcome(); out.Verdict != VerdictSat {
		t.Fatalf("first solve verdict = %v, want SAT", out.Verdict)
	}

	j2, err := s.Submit(request(parseDQ(t, dqdimacsB), EngineHQS, Limits{}))
	if err != nil {
		t.Fatal(err)
	}
	<-j2.Done()
	out := j2.Outcome()
	if !out.FromCache {
		t.Fatalf("permuted resubmission missed the cache: %+v", out)
	}
	if out.Verdict != VerdictSat {
		t.Fatalf("cached verdict = %v, want SAT", out.Verdict)
	}
}
