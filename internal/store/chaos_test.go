package store

import (
	"errors"
	"fmt"
	"math/rand"
	"os"
	"sync"
	"testing"

	"repro/internal/faults"
	"repro/internal/leakcheck"
)

// withFaults closes s and reopens its directory as a store whose seams fire
// the plan built from spec, so the entries written before the drill are
// still on disk when it starts.
func withFaults(t *testing.T, s *Store, spec string, seed int64) (*Store, *faults.Plan) {
	t.Helper()
	plan, err := faults.ParseSpec(spec, seed)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	s.Close()
	opt := discard
	opt.Faults = plan
	f, _, err := Open(s.Dir(), opt)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	t.Cleanup(func() { f.Close() })
	return f, plan
}

// TestStoreRestartDurability writes entries through one store handle, drops
// it without Close (the kill -9 analogue for in-process state), reopens the
// directory, and expects every completed write to be served intact.
func TestStoreRestartDurability(t *testing.T) {
	dir := t.TempDir()
	s1, _, err := Open(dir, discard)
	if err != nil {
		t.Fatal(err)
	}
	const n = 32
	for i := 0; i < n; i++ {
		e := testEntry(i%2 == 0)
		e.Key = testKey(byte(i))
		e.Conflicts = int64(i)
		if err := s1.Put(e); err != nil {
			t.Fatalf("Put %d: %v", i, err)
		}
		s1.JournalStart(fmt.Sprintf("j%d", i), e.Key)
	}
	// "Crash": no Close, no journal Done records.

	s2, lost, err := Open(dir, discard)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer s2.Close()
	if len(lost) != n {
		t.Fatalf("recovery reported %d lost jobs, want %d", len(lost), n)
	}
	for i := 0; i < n; i++ {
		got, err := s2.Get(testKey(byte(i)))
		if err != nil || got == nil {
			t.Fatalf("entry %d lost across restart: (%v, %v)", i, got, err)
		}
		if got.Conflicts != int64(i) {
			t.Fatalf("entry %d came back with conflicts %d", i, got.Conflicts)
		}
		if (i%2 == 0) != (got.Cert != nil) {
			t.Fatalf("entry %d certificate presence flipped across restart", i)
		}
	}
}

// TestStoreConcurrentReadersWriters hammers one store from concurrent
// readers, writers, and a verifier under -race. Every Get must return either
// nil or a fully consistent entry for its key.
func TestStoreConcurrentReadersWriters(t *testing.T) {
	leakcheck.Check(t)
	s := openTest(t)
	const keys = 8
	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 50; i++ {
				k := byte(rng.Intn(keys))
				e := testEntry(k%2 == 0)
				e.Key = testKey(k)
				e.Conflicts = int64(k) // key-derived, so any write is consistent
				if err := s.Put(e); err != nil {
					t.Errorf("Put: %v", err)
				}
			}
		}(int64(w))
	}
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(100 + seed))
			for i := 0; i < 100; i++ {
				k := byte(rng.Intn(keys))
				got, err := s.Get(testKey(k))
				if err != nil {
					t.Errorf("Get: %v", err)
					continue
				}
				if got == nil {
					continue // not written yet
				}
				if got.Conflicts != int64(k) || got.Key != testKey(k) {
					t.Errorf("Get(%d) returned inconsistent entry %+v", k, got)
				}
			}
		}(int64(r))
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 10; i++ {
			if _, err := s.Verify(); err != nil {
				t.Errorf("Verify: %v", err)
			}
		}
	}()
	wg.Wait()
	if st := s.Stats(); st.Corrupt != 0 || st.Quarantined != 0 {
		t.Fatalf("clean concurrent traffic produced corruption stats %+v", st)
	}
}

// TestStoreFaultInjectionRead arms store.read with a deterministic error;
// reads degrade to counted misses-with-error, and disarming restores
// service without reopening.
func TestStoreFaultInjectionRead(t *testing.T) {
	s := openTest(t)
	e := testEntry(false)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	s, plan := withFaults(t, s, "store.read:error:every=1", 1)
	got, err := s.Get(e.Key)
	if got != nil {
		t.Fatal("injected read error still returned an entry")
	}
	if !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("got %v, want injected error", err)
	}
	if st := s.Stats(); st.IOErrors != 1 {
		t.Fatalf("stats %+v, want 1 io error", st)
	}
	plan.Disarm()
	if got, err := s.Get(e.Key); err != nil || got == nil {
		t.Fatalf("store did not recover after fault cleared: (%v, %v)", got, err)
	}
}

// TestStoreFaultInjectionWrite arms store.write; writes fail gracefully and
// leave any previous entry for the key intact.
func TestStoreFaultInjectionWrite(t *testing.T) {
	s := openTest(t)
	e := testEntry(false)
	e.Verdict = VerdictUnsat
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	s, plan := withFaults(t, s, "store.write:error:every=1", 1)
	e2 := testEntry(true)
	if err := s.Put(e2); !errors.Is(err, faults.ErrInjected) {
		t.Fatalf("Put under injected write fault: %v", err)
	}
	plan.Disarm()
	got, err := s.Get(e.Key)
	if err != nil || got == nil {
		t.Fatalf("previous entry lost to failed overwrite: (%v, %v)", got, err)
	}
	if got.Verdict != VerdictUnsat || got.Cert != nil {
		t.Fatalf("failed write partially applied: %+v", got)
	}
}

// TestStoreFaultInjectionCorrupt arms store.corrupt: the store flips a real
// bit in the bytes it just read, and the checksum/quarantine machinery must
// catch every single one.
func TestStoreFaultInjectionCorrupt(t *testing.T) {
	s := openTest(t)
	e := testEntry(true)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	s, _ = withFaults(t, s, "store.corrupt:error:times=1", 1)
	got, err := s.Get(e.Key)
	if err != nil || got != nil {
		t.Fatalf("bit-flipped read: (%v, %v), want quarantined miss", got, err)
	}
	st := s.Stats()
	if st.Corrupt != 1 || st.Quarantined != 1 {
		t.Fatalf("stats %+v, want 1 corrupt / 1 quarantined", st)
	}
	// The rule fired once; the re-written entry reads clean afterwards.
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	if got, err := s.Get(e.Key); err != nil || got == nil {
		t.Fatalf("store did not recover after corruption: (%v, %v)", got, err)
	}
}

// TestStoreChaosMixed runs mixed probabilistic disk faults against
// concurrent traffic: whatever the disk does, a Get either misses or
// returns the exact entry written for its key, and the store keeps serving
// after the plan is disarmed.
func TestStoreChaosMixed(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos run skipped in -short mode")
	}
	leakcheck.Check(t)
	s, plan := withFaults(t, openTest(t),
		"store.read:error:p=0.2;"+
			"store.write:error:p=0.2;"+
			"store.corrupt:error:p=0.3",
		7)
	const keys = 6
	var wg sync.WaitGroup
	for w := 0; w < 6; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < 80; i++ {
				k := byte(rng.Intn(keys))
				if rng.Intn(2) == 0 {
					e := testEntry(k%2 == 0)
					e.Key = testKey(k)
					e.Conflicts = int64(k)
					s.Put(e) // failures are the point
				} else {
					got, _ := s.Get(testKey(k))
					if got != nil && (got.Conflicts != int64(k) || got.Key != testKey(k)) {
						t.Errorf("chaos Get(%d) returned wrong entry %+v", k, got)
					}
				}
			}
		}(int64(w))
	}
	wg.Wait()
	plan.Disarm()
	// Post-chaos: the store still round-trips cleanly.
	e := testEntry(true)
	e.Key = testKey(0xee)
	if err := s.Put(e); err != nil {
		t.Fatalf("post-chaos Put: %v", err)
	}
	if got, err := s.Get(e.Key); err != nil || got == nil {
		t.Fatalf("post-chaos Get: (%v, %v)", got, err)
	}
	// Quarantine dir holds only entries the corrupt rule actually hit, and
	// each has a reason note.
	if _, err := s.Verify(); err != nil {
		t.Fatalf("post-chaos Verify: %v", err)
	}
}

// TestStorePersistsAcrossOsRemoveTmp removes the tmp dir mid-flight to force
// a write error path through writeAtomic.
func TestStorePersistsAcrossOsRemoveTmp(t *testing.T) {
	s := openTest(t)
	os.RemoveAll(s.dir) // yank the whole store out from under the handle
	e := testEntry(false)
	if err := s.Put(e); err == nil {
		t.Fatal("Put into a removed directory succeeded")
	}
	if got, err := s.Get(e.Key); got != nil {
		t.Fatalf("Get from a removed directory returned (%v, %v)", got, err)
	}
	if st := s.Stats(); st.IOErrors == 0 {
		t.Fatalf("stats %+v, want io errors counted", st)
	}
}
