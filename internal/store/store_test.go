package store

import (
	"encoding/binary"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"repro/internal/leakcheck"
)

// discard silences the degradation log in tests that corrupt on purpose.
var discard = Options{Logf: func(string, ...any) {}}

func openTest(t *testing.T) *Store {
	t.Helper()
	s, lost, err := Open(t.TempDir(), discard)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(lost) != 0 {
		t.Fatalf("fresh store reports %d lost jobs", len(lost))
	}
	t.Cleanup(func() { s.Close() })
	return s
}

// TestStorePutGet is the basic durable round-trip, with a goroutine-leak
// check over open/put/get/close (the satellite requirement: a store must not
// spawn anything that outlives it).
func TestStorePutGet(t *testing.T) {
	leakcheck.Check(t)
	s := openTest(t)

	e := testEntry(true)
	if err := s.Put(e); err != nil {
		t.Fatalf("Put: %v", err)
	}
	got, err := s.Get(e.Key)
	if err != nil {
		t.Fatalf("Get: %v", err)
	}
	if got == nil {
		t.Fatal("Get missed a just-written entry")
	}
	if got.Verdict != e.Verdict || got.Engine != e.Engine || got.Cert == nil {
		t.Fatalf("Get returned %+v", got)
	}
	if miss, err := s.Get(testKey(0x01)); err != nil || miss != nil {
		t.Fatalf("absent key: got (%v, %v), want (nil, nil)", miss, err)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Writes != 1 {
		t.Fatalf("stats %+v, want 1 hit / 1 miss / 1 write", st)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d, want 1", s.Len())
	}
}

// TestStoreOverwrite checks last-writer-wins semantics under the same key.
func TestStoreOverwrite(t *testing.T) {
	s := openTest(t)
	e := testEntry(false)
	e.Verdict = VerdictUnsat
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	e2 := testEntry(true)
	e2.Engine = "defex"
	if err := s.Put(e2); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(e.Key)
	if err != nil || got == nil {
		t.Fatalf("Get: (%v, %v)", got, err)
	}
	if got.Engine != "defex" || got.Cert == nil {
		t.Fatalf("overwrite did not win: %+v", got)
	}
	if s.Len() != 1 {
		t.Fatalf("Len = %d after overwrite, want 1", s.Len())
	}
}

// TestStoreQuarantineOnCorruption damages an entry on disk in several ways;
// every Get must degrade to a miss and move the file into quarantine with a
// reason note — never return a wrong or partial answer.
func TestStoreQuarantineOnCorruption(t *testing.T) {
	corruptions := map[string]func(path string) error{
		"bit-flip": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			data[len(data)/3] ^= 0x10
			return os.WriteFile(path, data, 0o644)
		},
		"truncate": func(path string) error {
			data, err := os.ReadFile(path)
			if err != nil {
				return err
			}
			return os.WriteFile(path, data[:len(data)*2/3], 0o644)
		},
		"empty": func(path string) error {
			return os.WriteFile(path, nil, 0o644)
		},
		"garbage": func(path string) error {
			return os.WriteFile(path, []byte(strings.Repeat("junk", 100)), 0o644)
		},
	}
	for name, corrupt := range corruptions {
		t.Run(name, func(t *testing.T) {
			s := openTest(t)
			e := testEntry(true)
			if err := s.Put(e); err != nil {
				t.Fatal(err)
			}
			if err := corrupt(s.entryPath(e.Key)); err != nil {
				t.Fatalf("corrupting: %v", err)
			}
			got, err := s.Get(e.Key)
			if err != nil || got != nil {
				t.Fatalf("corrupt entry: got (%v, %v), want quarantined miss", got, err)
			}
			st := s.Stats()
			if st.Corrupt != 1 || st.Quarantined != 1 {
				t.Fatalf("stats %+v, want 1 corrupt / 1 quarantined", st)
			}
			q, _ := filepath.Glob(filepath.Join(s.dir, quarantineDir, e.Key+".*"+entrySuffix))
			if len(q) != 1 {
				t.Fatalf("quarantine holds %d files for the key, want 1", len(q))
			}
			if _, err := os.Stat(q[0] + ".reason"); err != nil {
				t.Errorf("no reason note beside %s", q[0])
			}
			// The content-addressed slot is free again: a rewrite works.
			if err := s.Put(e); err != nil {
				t.Fatalf("re-Put after quarantine: %v", err)
			}
			if got, err := s.Get(e.Key); err != nil || got == nil {
				t.Fatalf("re-Get after quarantine: (%v, %v)", got, err)
			}
		})
	}
}

// TestStoreQuarantinesHostileCertificate plants a checksum-valid entry
// whose certificate cones exceed their declared bounds: Get must quarantine
// it as corrupt and report a miss, not panic.
func TestStoreQuarantinesHostileCertificate(t *testing.T) {
	s := openTest(t)
	e := testEntry(false)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.entryPath(e.Key), withRawCert(t, []int32{2}, hostileCones[0]), 0o644); err != nil {
		t.Fatal(err)
	}
	got, err := s.Get(e.Key)
	if err != nil || got != nil {
		t.Fatalf("hostile entry: got (%v, %v), want quarantined miss", got, err)
	}
	if st := s.Stats(); st.Corrupt != 1 || st.Quarantined != 1 {
		t.Fatalf("stats %+v, want 1 corrupt / 1 quarantined", st)
	}
}

// TestStoreKeyMismatchQuarantined plants a valid entry file under the wrong
// content-addressed name; the store must refuse to serve it.
func TestStoreKeyMismatchQuarantined(t *testing.T) {
	s := openTest(t)
	e := testEntry(false)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	other := testKey(0x11)
	data, _ := os.ReadFile(s.entryPath(e.Key))
	os.MkdirAll(filepath.Dir(s.entryPath(other)), 0o755)
	os.WriteFile(s.entryPath(other), data, 0o644)
	got, err := s.Get(other)
	if err != nil || got != nil {
		t.Fatalf("misplaced entry served: (%v, %v)", got, err)
	}
	if st := s.Stats(); st.Quarantined != 1 {
		t.Fatalf("stats %+v, want 1 quarantined", st)
	}
}

// TestStoreVersionSkipNotQuarantined rewrites an entry as a future format
// version (checksum intact); the store must skip it without quarantining —
// the file is not damaged, this build just cannot read it.
func TestStoreVersionSkipNotQuarantined(t *testing.T) {
	s := openTest(t)
	e := testEntry(false)
	if err := s.Put(e); err != nil {
		t.Fatal(err)
	}
	path := s.entryPath(e.Key)
	data, _ := os.ReadFile(path)
	data[4] = entryVersion + 1
	fixCRC(data)
	os.WriteFile(path, data, 0o644)

	got, err := s.Get(e.Key)
	if err != nil || got != nil {
		t.Fatalf("future-version entry: (%v, %v), want skip", got, err)
	}
	st := s.Stats()
	if st.VersionSkips != 1 || st.Quarantined != 0 {
		t.Fatalf("stats %+v, want 1 version skip and 0 quarantined", st)
	}
	if _, err := os.Stat(path); err != nil {
		t.Fatal("future-version entry was removed")
	}
}

// TestStoreJournalRecovery simulates a crash: a second Open on the same
// directory (without Close — the file handle of a kill -9'd process does not
// run cleanup either) must report exactly the jobs with unmatched starts,
// and a third Open reports none.
func TestStoreJournalRecovery(t *testing.T) {
	dir := t.TempDir()
	s1, lost, err := Open(dir, discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 0 {
		t.Fatalf("fresh open: %d lost jobs", len(lost))
	}
	s1.JournalStart("j1", testKey(0x01))
	s1.JournalStart("j2", testKey(0x02))
	s1.JournalStart("j3", testKey(0x03))
	s1.JournalDone("j2")
	// No Close: the process "dies" here.

	s2, lost, err := Open(dir, discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 2 || lost[0].ID != "j1" || lost[1].ID != "j3" {
		t.Fatalf("recovery reported %+v, want j1 and j3", lost)
	}
	if lost[0].Key != testKey(0x01) {
		t.Fatalf("lost job j1 has key %s", lost[0].Key)
	}
	s2.Close()

	_, lost, err = Open(dir, discard)
	if err != nil {
		t.Fatal(err)
	}
	if len(lost) != 0 {
		t.Fatalf("third open still reports %d lost jobs (journal not rotated)", len(lost))
	}
}

// TestStoreJournalTornTail appends a torn partial line to the journal; the
// next open must still recover the intact records.
func TestStoreJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	s1, _, err := Open(dir, discard)
	if err != nil {
		t.Fatal(err)
	}
	s1.JournalStart("j1", testKey(0x01))
	f, err := os.OpenFile(filepath.Join(dir, journalName), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("S j2 abc") // torn mid-append
	f.Close()

	_, lost, err := Open(dir, discard)
	if err != nil {
		t.Fatalf("open over torn journal: %v", err)
	}
	if len(lost) != 1 || lost[0].ID != "j1" {
		t.Fatalf("recovered %+v, want exactly j1", lost)
	}
}

// TestStoreVerifyEvictCompact exercises the maintenance surface behind the
// dqbfstore tool.
func TestStoreVerifyEvictCompact(t *testing.T) {
	s := openTest(t)
	old := testEntry(false)
	old.CreatedUnix = time.Now().Add(-48 * time.Hour).Unix()
	if err := s.Put(old); err != nil {
		t.Fatal(err)
	}
	fresh := testEntry(true)
	fresh.Key = testKey(0x22)
	fresh.CreatedUnix = time.Now().Unix()
	if err := s.Put(fresh); err != nil {
		t.Fatal(err)
	}
	bad := testEntry(false)
	bad.Key = testKey(0x33)
	if err := s.Put(bad); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(s.entryPath(bad.Key))
	data[len(data)-1] ^= 0xff
	os.WriteFile(s.entryPath(bad.Key), data, 0o644)

	res, err := s.Verify()
	if err != nil {
		t.Fatalf("Verify: %v", err)
	}
	if res.Checked != 3 || res.OK != 2 || res.Quarantined != 1 {
		t.Fatalf("Verify = %+v, want 3 checked / 2 ok / 1 quarantined", res)
	}

	ds, err := s.Scan()
	if err != nil {
		t.Fatalf("Scan: %v", err)
	}
	if ds.Entries != 2 || ds.Quarantined != 1 || ds.WithCertificates != 1 {
		t.Fatalf("Scan = %+v", ds)
	}

	evicted, err := s.EvictOlderThan(time.Now().Add(-24 * time.Hour))
	if err != nil || evicted != 1 {
		t.Fatalf("EvictOlderThan = (%d, %v), want (1, nil)", evicted, err)
	}
	if got, _ := s.Get(old.Key); got != nil {
		t.Fatal("evicted entry still served")
	}
	if got, _ := s.Get(fresh.Key); got == nil {
		t.Fatal("fresh entry evicted")
	}

	removed, err := s.Compact()
	if err != nil || removed < 1 {
		t.Fatalf("Compact = (%d, %v), want the quarantined files gone", removed, err)
	}
	if ds, _ := s.Scan(); ds.Quarantined != 0 {
		t.Fatalf("quarantine not emptied: %+v", ds)
	}
}

// fixCRC recomputes the trailing checksum after a deliberate mutation.
func fixCRC(data []byte) {
	binary.LittleEndian.PutUint32(data[len(data)-4:],
		crc32.Checksum(data[:len(data)-4], crcTable))
}
