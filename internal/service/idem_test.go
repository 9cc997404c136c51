package service

import (
	"context"
	"errors"
	"fmt"
	"testing"
	"time"

	"repro/internal/problem"
)

// TestIdempotentSubmitDeduplicates is the regression test for the
// double-count bug the cluster coordinator would otherwise hit: a forward
// retried with the same idempotency key must land on the job the first
// submit created, leaving history with one entry and the submitted/completed
// counters incremented once.
func TestIdempotentSubmitDeduplicates(t *testing.T) {
	s := NewScheduler(Config{Workers: 2, CacheSize: -1})
	defer s.Drain(context.Background())

	p := problem.FromDQBF(paperExample1())
	key := p.CanonicalHash() + ":attempt0"
	j1, err := s.Submit(Request{Problem: p, Engine: EngineHQS, Limits: Limits{Timeout: 30 * time.Second}, IdemKey: key})
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	j2, err := s.Submit(Request{Problem: p, Engine: EngineHQS, Limits: Limits{Timeout: 30 * time.Second}, IdemKey: key})
	if err != nil {
		t.Fatalf("retried submit: %v", err)
	}
	if j1.ID() != j2.ID() {
		t.Fatalf("retried submit created a new job: %s vs %s", j1.ID(), j2.ID())
	}
	out := waitDone(t, j2)
	if out.Verdict != VerdictSat {
		t.Fatalf("verdict: %+v", out)
	}

	// A later attempt is a distinct key on purpose: the coordinator only
	// dedupes exact resends, not escalations.
	j3, err := s.Submit(Request{Problem: p, Engine: EngineHQS, Limits: Limits{Timeout: 30 * time.Second}, IdemKey: p.CanonicalHash() + ":attempt1"})
	if err != nil {
		t.Fatalf("second attempt: %v", err)
	}
	if j3.ID() == j1.ID() {
		t.Fatal("distinct attempt key deduplicated onto the first job")
	}
	waitDone(t, j3)

	st := s.Stats()
	if st.Submitted != 2 || st.Completed != 2 {
		t.Fatalf("retried submit double-counted: submitted=%d completed=%d", st.Submitted, st.Completed)
	}
	if st.IdemHits != 1 {
		t.Fatalf("idem hits: got %d, want 1", st.IdemHits)
	}
	if st.HistoryLen != 2 {
		t.Fatalf("history: got %d entries, want 2", st.HistoryLen)
	}
}

// TestIdempotencyKeyEviction pins the cleanup path: once the job behind a
// key is evicted from history, the key unregisters and a resend with it
// creates (and counts) a fresh job rather than dangling.
func TestIdempotentKeyEviction(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, HistorySize: 1, CacheSize: -1})
	defer s.Drain(context.Background())

	p1 := problem.FromDQBF(paperExample1())
	key := p1.CanonicalHash() + ":attempt0"
	j1, err := s.Submit(Request{Problem: p1, Engine: EngineHQS, Limits: Limits{Timeout: 30 * time.Second}, IdemKey: key})
	if err != nil {
		t.Fatalf("submit: %v", err)
	}
	waitDone(t, j1)

	// Push j1 out of the single-slot history with an unrelated job.
	p2 := problem.FromDQBF(unsatExample())
	j2, err := s.Submit(Request{Problem: p2, Engine: EngineHQS, Limits: Limits{Timeout: 30 * time.Second}})
	if err != nil {
		t.Fatalf("submit evictor: %v", err)
	}
	waitDone(t, j2)

	j3, err := s.Submit(Request{Problem: p1, Engine: EngineHQS, Limits: Limits{Timeout: 30 * time.Second}, IdemKey: key})
	if err != nil {
		t.Fatalf("resend after eviction: %v", err)
	}
	if j3.ID() == j1.ID() {
		t.Fatal("resend resolved to an evicted job")
	}
	waitDone(t, j3)
	if st := s.Stats(); st.IdemHits != 0 {
		t.Fatalf("idem hits after eviction: got %d, want 0", st.IdemHits)
	}
}

// TestIdempotencyKeyNamesOneFormula pins that a key answers only for its own
// formula: a resubmit under a tracked key whose problem has another
// canonical hash is refused, not answered with the other formula's verdict.
func TestIdempotencyKeyNamesOneFormula(t *testing.T) {
	s := NewScheduler(Config{Workers: 1, CacheSize: -1})
	defer s.Drain(context.Background())

	j1, err := s.Submit(Request{Problem: problem.FromDQBF(paperExample1()), Engine: EngineHQS, IdemKey: "k"})
	if err != nil {
		t.Fatalf("first submit: %v", err)
	}
	if out := waitDone(t, j1); out.Verdict != VerdictSat {
		t.Fatalf("first job: %+v", out)
	}
	j2, err := s.Submit(Request{Problem: problem.FromDQBF(unsatExample()), Engine: EngineHQS, IdemKey: "k"})
	if !errors.Is(err, ErrIdemConflict) {
		var got string
		if j2 != nil {
			got = fmt.Sprintf("job %s answering %v", j2.ID(), waitDone(t, j2).Verdict)
		}
		t.Fatalf("same key, other formula: err %v, %s; want ErrIdemConflict", err, got)
	}
	if st := s.Stats(); st.IdemHits != 0 || st.Submitted != 1 || st.Rejected != 1 {
		t.Fatalf("stats after conflict: idem_hits=%d submitted=%d rejected=%d", st.IdemHits, st.Submitted, st.Rejected)
	}
}
