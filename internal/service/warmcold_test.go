//go:build experiment

package service

// The warm-vs-cold-start experiment behind the EXPERIMENTS.md persistence
// numbers. Tag-gated so the ordinary test suite stays fast; run it with
//
//	go test -tags experiment -run TestExperimentWarmColdStart -v ./internal/service
//
// It solves the adder family twice through schedulers sharing one store
// directory: the cold pass populates the store, the warm pass simulates a
// daemon restart (fresh scheduler, empty memory cache) and must answer from
// disk with certificates re-verified.

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/bench"
	"repro/internal/store"
)

func TestExperimentWarmColdStart(t *testing.T) {
	insts, err := bench.Generate(bench.FamilyAdder, bench.DefaultGenOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()

	pass := func(label string) (time.Duration, Stats) {
		st, _, err := store.Open(dir, store.Options{Logf: func(string, ...any) {}})
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		s := NewScheduler(Config{Workers: 1, Store: st, Certify: true})
		defer drainNow(t, s)
		begin := time.Now()
		for _, inst := range insts {
			j, err := s.Submit(request(inst.Formula, EngineHQS, Limits{Timeout: 30 * time.Second}))
			if err != nil {
				t.Fatalf("%s %s: %v", label, inst.Name, err)
			}
			if out := waitDone(t, j); out.Verdict != VerdictSat && out.Verdict != VerdictUnsat {
				t.Fatalf("%s %s: %+v", label, inst.Name, out)
			}
		}
		return time.Since(begin), s.Stats()
	}

	coldT, coldS := pass("cold")
	warmT, warmS := pass("warm")
	if warmS.StoreHits != int64(len(insts)) {
		t.Fatalf("warm pass got %d/%d store hits", warmS.StoreHits, len(insts))
	}
	fmt.Printf("adder x%d (hqs -certify, 1 worker): cold %.3fs (0 store hits), warm %.3fs (%d/%d store hits, certs re-verified), speedup %.1fx\n",
		len(insts), coldT.Seconds(), warmT.Seconds(), warmS.StoreHits, len(insts), coldT.Seconds()/warmT.Seconds())
	_ = coldS
}
