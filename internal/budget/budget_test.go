package budget

import (
	"errors"
	"testing"
	"time"

	"repro/internal/faults"
)

func TestNilBudgetIsUnlimited(t *testing.T) {
	var b *Budget
	if b.Stopped() || b.Err() != nil {
		t.Fatal("nil budget must never stop")
	}
	b.Cancel() // must not panic
	b.AddConflicts(10)
	b.AddDecisions(10)
	if b.ConflictsUsed() != 0 || b.DecisionsUsed() != 0 {
		t.Fatal("nil budget counts nothing")
	}
	if b.NodeCap() != 0 || b.Faults() != nil {
		t.Fatal("nil budget has no limits and no fault plan")
	}
	if b.Done() != nil {
		t.Fatal("nil budget Done must be nil")
	}
}

func TestCancel(t *testing.T) {
	b := New(Limits{})
	if b.Stopped() {
		t.Fatal("fresh budget stopped")
	}
	b.Cancel()
	b.Cancel() // idempotent
	if !b.Cancelled() || !errors.Is(b.Err(), ErrCancelled) {
		t.Fatalf("want ErrCancelled, got %v", b.Err())
	}
	select {
	case <-b.Done():
	default:
		t.Fatal("Done not closed after Cancel")
	}
}

func TestDeadline(t *testing.T) {
	b := New(Limits{Deadline: time.Now().Add(-time.Second)})
	if !errors.Is(b.Err(), ErrDeadline) {
		t.Fatalf("want ErrDeadline, got %v", b.Err())
	}
	b2 := WithTimeout(time.Hour)
	if b2.Stopped() {
		t.Fatal("1h budget stopped immediately")
	}
	if b2.deadline.IsZero() {
		t.Fatal("WithTimeout must set a deadline")
	}
	if !WithTimeout(0).deadline.IsZero() {
		t.Fatal("WithTimeout(0) must be deadline-free")
	}
}

func TestCaps(t *testing.T) {
	b := New(Limits{Conflicts: 100, Decisions: 50})
	b.AddConflicts(99)
	if b.Stopped() {
		t.Fatal("stopped below conflict cap")
	}
	b.AddConflicts(1)
	if !errors.Is(b.Err(), ErrConflicts) {
		t.Fatalf("want ErrConflicts, got %v", b.Err())
	}
	b2 := New(Limits{Decisions: 5})
	b2.AddDecisions(5)
	if !errors.Is(b2.Err(), ErrDecisions) {
		t.Fatalf("want ErrDecisions, got %v", b2.Err())
	}
}

func TestErrPrecedence(t *testing.T) {
	b := New(Limits{Conflicts: 1, Deadline: time.Now().Add(-time.Second)})
	b.AddConflicts(5)
	b.Cancel()
	if !errors.Is(b.Err(), ErrCancelled) {
		t.Fatalf("cancellation must take precedence, got %v", b.Err())
	}
}

func TestChild(t *testing.T) {
	plan := faults.NewPlan(1)
	b := New(Limits{Conflicts: 7, Nodes: 42, Deadline: time.Now().Add(time.Hour), Faults: plan})
	c := b.Child()
	if c.NodeCap() != 42 || c.deadline != b.deadline || c.Faults() != plan {
		t.Fatal("child must inherit limits and the fault plan")
	}
	c.Cancel()
	if b.Cancelled() {
		t.Fatal("child cancellation must not propagate to parent")
	}
	c.AddConflicts(3)
	if b.ConflictsUsed() != 0 {
		t.Fatal("child usage must not propagate implicitly")
	}
	var nilB *Budget
	if nilB.Child() == nil || nilB.Child().Stopped() {
		t.Fatal("nil parent yields unlimited child")
	}
}

func TestConcurrentUse(t *testing.T) {
	b := New(Limits{Conflicts: 1 << 30})
	doneCh := make(chan struct{})
	for i := 0; i < 8; i++ {
		go func() {
			for j := 0; j < 1000; j++ {
				b.AddConflicts(1)
				b.AddDecisions(1)
				_ = b.Stopped()
			}
			doneCh <- struct{}{}
		}()
	}
	go b.Cancel()
	for i := 0; i < 8; i++ {
		<-doneCh
	}
	if b.ConflictsUsed() != 8000 {
		t.Fatalf("lost updates: %d", b.ConflictsUsed())
	}
}
