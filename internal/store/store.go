// Package store is the crash-safe persistent result-and-certificate store
// under the solver service: a content-addressed on-disk map from canonical
// formula hashes (problem.CanonicalFormulaHash) to definitive verdicts, solver
// accounting, and Skolem certificates, plus a small append-only journal of
// in-flight jobs so a killed daemon can report on restart what was lost.
//
// Durability discipline:
//
//   - Entries are written atomically: marshal, write to a temp file in the
//     store's tmp/ directory, fsync, rename into place, fsync the parent
//     directory. A crash leaves either the old state or the new state,
//     never a torn entry under the content-addressed name.
//   - Every entry carries a versioned binary header and a CRC-32C trailer
//     (see entry.go). A torn write, truncation, or bit flip fails the
//     checksum; the file is moved to the quarantine/ sidecar directory with
//     a .reason note and the read reports a miss — never a wrong answer.
//   - Certificates are NOT trusted on load just because the checksum holds:
//     the service re-verifies them against the formula via internal/cert
//     before serving the verdict, and hands rejects back to RejectCert.
//   - Every I/O failure degrades gracefully: it is logged, counted, and
//     reported to the caller as a miss or failed write — the daemon solves
//     in memory instead. The store is an accelerator, never a point of
//     failure.
//
// The store.read, store.write, and store.corrupt fault points (internal/
// faults) inject disk failures and real bit flips into these paths for the
// chaos suite, from the plan in Options.Faults.
package store

import (
	"errors"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync/atomic"
	"time"

	"repro/internal/faults"
)

// Subdirectories of a store root.
const (
	entriesDir    = "entries"
	quarantineDir = "quarantine"
	tmpDir        = "tmp"
	entrySuffix   = ".entry"
)

// Stats are the store's operation counters, shaped for JSON embedding in the
// daemon's /stats payload.
type Stats struct {
	// Hits counts reads that returned a decodable entry.
	Hits int64 `json:"hits"`
	// Misses counts reads of absent keys.
	Misses int64 `json:"misses"`
	// Writes counts entries durably written.
	Writes int64 `json:"writes"`
	// Corrupt counts entries that failed checksum or structural validation
	// on read (each is quarantined).
	Corrupt int64 `json:"corrupt"`
	// Quarantined counts files moved to the quarantine sidecar, corrupt and
	// certificate-rejected alike.
	Quarantined int64 `json:"quarantined"`
	// CertRejected counts entries whose Skolem certificate failed
	// re-verification on load (each is quarantined).
	CertRejected int64 `json:"cert_rejected"`
	// IOErrors counts read/write/journal failures that degraded to a miss
	// or a lost write.
	IOErrors int64 `json:"io_errors"`
	// VersionSkips counts entries written by an unknown format version,
	// skipped without quarantine.
	VersionSkips int64 `json:"version_skips"`
}

// Store is a content-addressed on-disk result store rooted at one
// directory. All methods are safe for concurrent use; distinct keys never
// contend, and writes to the same key last-writer-win atomically.
type Store struct {
	dir     string
	journal *journal
	logf    func(format string, args ...any)
	plan    *faults.Plan

	hits         atomic.Int64
	misses       atomic.Int64
	writes       atomic.Int64
	corrupt      atomic.Int64
	quarantined  atomic.Int64
	certRejected atomic.Int64
	ioErrors     atomic.Int64
	versionSkips atomic.Int64
}

// Options tune Open.
type Options struct {
	// Logf receives one line per degraded operation (corrupt entry, I/O
	// error, quarantine); nil means the standard logger.
	Logf func(format string, args ...any)
	// Faults, when non-nil, is the fault-injection plan the store.read,
	// store.write and store.corrupt seams fire; nil means no faults.
	Faults *faults.Plan
}

// Open opens (creating if necessary) the store rooted at dir and replays the
// previous process's journal: the returned LostJobs are the jobs that were
// in flight when that process died. Open never fails because of individual
// damaged entries — those are quarantined lazily on read.
func Open(dir string, opts ...Options) (*Store, []LostJob, error) {
	var opt Options
	if len(opts) > 0 {
		opt = opts[0]
	}
	if opt.Logf == nil {
		opt.Logf = log.Printf
	}
	for _, sub := range []string{entriesDir, quarantineDir, tmpDir} {
		if err := os.MkdirAll(filepath.Join(dir, sub), 0o755); err != nil {
			return nil, nil, fmt.Errorf("store: creating %s: %w", sub, err)
		}
	}
	// Stray temp files are debris of writes a crash interrupted before the
	// rename; they were never visible and are safe to discard.
	if strays, err := filepath.Glob(filepath.Join(dir, tmpDir, "*")); err == nil {
		for _, p := range strays {
			os.Remove(p)
		}
	}
	j, lost, err := openJournal(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("store: opening journal: %w", err)
	}
	return &Store{dir: dir, journal: j, logf: opt.Logf, plan: opt.Faults}, lost, nil
}

// Close releases the journal. Entry files need no teardown — every write
// was already durable when Put returned.
func (s *Store) Close() error {
	return s.journal.Close()
}

// entryPath shards entries by the first two hex digits of the key so no
// single directory accumulates millions of files.
func (s *Store) entryPath(key string) string {
	return filepath.Join(s.dir, entriesDir, key[:2], key+entrySuffix)
}

func validKey(key string) error {
	if len(key) != 2*keyRawLen {
		return fmt.Errorf("store: key %q is not a %d-char hex hash", key, 2*keyRawLen)
	}
	for _, c := range key {
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return fmt.Errorf("store: key %q is not lowercase hex", key)
		}
	}
	return nil
}

// Get returns the entry stored under key, nil when the store has none. Any
// failure mode degrades to a miss: an I/O error returns (nil, err) after
// counting and logging so the caller can fall back to solving in memory; a
// corrupt entry is quarantined and reported as a plain miss; an entry from
// an unknown format version is skipped. Get never returns a wrong answer —
// the worst outcome of any disk state is re-solving.
func (s *Store) Get(key string) (*Entry, error) {
	if err := validKey(key); err != nil {
		return nil, err
	}
	if err := s.plan.Fire(faults.StoreRead); err != nil {
		s.ioErrors.Add(1)
		s.logf("store: read %s: %v (degrading to miss)", key[:12], err)
		return nil, err
	}
	data, err := os.ReadFile(s.entryPath(key))
	if os.IsNotExist(err) {
		s.misses.Add(1)
		return nil, nil
	}
	if err != nil {
		s.ioErrors.Add(1)
		s.logf("store: read %s: %v (degrading to miss)", key[:12], err)
		return nil, err
	}
	// Chaos seam: a firing store.corrupt rule flips a real bit in the bytes
	// just read, so the checksum/quarantine machinery below runs against
	// genuine corruption rather than a simulated flag.
	if err := s.plan.Fire(faults.StoreCorrupt); err != nil && len(data) > 0 {
		data[len(data)/2] ^= 0x04
	}

	var e Entry
	switch err := e.UnmarshalBinary(data); {
	case err == nil:
	case errors.Is(err, ErrVersion):
		s.versionSkips.Add(1)
		s.logf("store: entry %s: %v (skipping)", key[:12], err)
		return nil, nil
	default:
		s.corrupt.Add(1)
		s.quarantine(key, err.Error())
		return nil, nil
	}
	if e.Key != key {
		// The file decodes but claims another hash: content addressing was
		// violated (misplaced file, collision in the making) — quarantine.
		s.corrupt.Add(1)
		s.quarantine(key, fmt.Sprintf("key mismatch: file claims %s", e.Key))
		return nil, nil
	}
	s.hits.Add(1)
	return &e, nil
}

// Put durably stores e under its key: temp file, fsync, rename, directory
// fsync. A failure is counted and logged and the store is left without the
// new entry (the previous entry for the key, if any, survives intact).
func (s *Store) Put(e *Entry) error {
	if err := validKey(e.Key); err != nil {
		return err
	}
	if err := s.plan.Fire(faults.StoreWrite); err != nil {
		s.ioErrors.Add(1)
		s.logf("store: write %s: %v (result not persisted)", e.Key[:12], err)
		return err
	}
	data, err := e.MarshalBinary()
	if err != nil {
		s.ioErrors.Add(1)
		s.logf("store: encode %s: %v", e.Key[:12], err)
		return err
	}
	if err := s.writeAtomic(s.entryPath(e.Key), data); err != nil {
		s.ioErrors.Add(1)
		s.logf("store: write %s: %v (result not persisted)", e.Key[:12], err)
		return err
	}
	s.writes.Add(1)
	return nil
}

// writeAtomic lands data at path via the temp-fsync-rename-dirsync dance.
func (s *Store) writeAtomic(path string, data []byte) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	tmp, err := os.CreateTemp(filepath.Join(s.dir, tmpDir), "put-*")
	if err != nil {
		return err
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmpName, path); err != nil {
		return err
	}
	return syncDir(filepath.Dir(path))
}

// syncDir fsyncs a directory so a completed rename survives power loss.
// Best effort: some filesystems refuse directory fsync, and losing the
// rename on power cut only costs a re-solve.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return nil
	}
	defer d.Close()
	d.Sync()
	return nil
}

// RejectCert quarantines the entry under key because its Skolem certificate
// failed re-verification against the formula. The caller (the service's
// store tier) runs the checker — it has the formula; the store only files
// the evidence.
func (s *Store) RejectCert(key string, reason error) {
	if validKey(key) != nil {
		return
	}
	s.certRejected.Add(1)
	s.quarantine(key, fmt.Sprintf("certificate rejected: %v", reason))
}

// quarantine moves the entry file for key into the quarantine sidecar
// directory under a unique name and drops a .reason note beside it. The
// original content-addressed slot becomes free, so the next solve of the
// formula repopulates it with a fresh entry.
func (s *Store) quarantine(key, reason string) {
	dst := filepath.Join(s.dir, quarantineDir,
		fmt.Sprintf("%s.%d%s", key, time.Now().UnixNano(), entrySuffix))
	if err := os.Rename(s.entryPath(key), dst); err != nil {
		// The file may already be gone (a racing reader quarantined it
		// first); anything else is an I/O error worth counting.
		if !os.IsNotExist(err) {
			s.ioErrors.Add(1)
			s.logf("store: quarantining %s: %v", key[:12], err)
		}
		return
	}
	s.quarantined.Add(1)
	s.logf("store: quarantined entry %s: %s", key[:12], reason)
	os.WriteFile(dst+".reason", []byte(reason+"\n"), 0o644)
	syncDir(filepath.Dir(dst))
}

// JournalStart records that job id began solving key; JournalDone closes the
// record. Failures degrade to a counted, logged no-op — the journal is a
// flight recorder, not a correctness dependency.
func (s *Store) JournalStart(id, key string) {
	if err := s.journal.Start(id, key); err != nil {
		s.ioErrors.Add(1)
		s.logf("store: journal start %s: %v", id, err)
	}
}

// JournalDone records that job id finished.
func (s *Store) JournalDone(id string) {
	if err := s.journal.Done(id); err != nil {
		s.ioErrors.Add(1)
		s.logf("store: journal done %s: %v", id, err)
	}
}

// Stats snapshots the operation counters.
func (s *Store) Stats() Stats {
	return Stats{
		Hits:         s.hits.Load(),
		Misses:       s.misses.Load(),
		Writes:       s.writes.Load(),
		Corrupt:      s.corrupt.Load(),
		Quarantined:  s.quarantined.Load(),
		CertRejected: s.certRejected.Load(),
		IOErrors:     s.ioErrors.Load(),
		VersionSkips: s.versionSkips.Load(),
	}
}

// DiskStats describe what is on disk, independent of this process's
// operation counters (dqbfstore stats).
type DiskStats struct {
	Entries          int   `json:"entries"`
	EntryBytes       int64 `json:"entry_bytes"`
	Quarantined      int   `json:"quarantined"`
	QuarantineBytes  int64 `json:"quarantine_bytes"`
	WithCertificates int   `json:"with_certificates"`
}

// Scan walks the store and returns disk-level statistics. Entries are
// decoded to count certificates; undecodable files count as entries but not
// certificates (Verify is the pass that acts on them).
func (s *Store) Scan() (DiskStats, error) {
	var ds DiskStats
	err := s.walkEntries(func(key, path string, info os.FileInfo) error {
		ds.Entries++
		ds.EntryBytes += info.Size()
		if data, err := os.ReadFile(path); err == nil {
			var e Entry
			if e.UnmarshalBinary(data) == nil && e.Cert != nil {
				ds.WithCertificates++
			}
		}
		return nil
	})
	if err != nil {
		return ds, err
	}
	qfiles, _ := filepath.Glob(filepath.Join(s.dir, quarantineDir, "*"+entrySuffix))
	for _, p := range qfiles {
		if info, err := os.Stat(p); err == nil {
			ds.Quarantined++
			ds.QuarantineBytes += info.Size()
		}
	}
	return ds, nil
}

// walkEntries visits every entry file under entries/ in sorted key order.
func (s *Store) walkEntries(visit func(key, path string, info os.FileInfo) error) error {
	root := filepath.Join(s.dir, entriesDir)
	var paths []string
	err := filepath.Walk(root, func(path string, info os.FileInfo, err error) error {
		if err != nil || info.IsDir() || !strings.HasSuffix(path, entrySuffix) {
			return err
		}
		paths = append(paths, path)
		return nil
	})
	if err != nil {
		return err
	}
	sort.Strings(paths)
	for _, path := range paths {
		key := strings.TrimSuffix(filepath.Base(path), entrySuffix)
		if validKey(key) != nil {
			continue
		}
		info, err := os.Stat(path)
		if err != nil {
			continue
		}
		if err := visit(key, path, info); err != nil {
			return err
		}
	}
	return nil
}

// VerifyResult summarizes a Verify pass.
type VerifyResult struct {
	// Checked is the number of entries visited.
	Checked int `json:"checked"`
	// OK is the number that decoded and checksummed clean.
	OK int `json:"ok"`
	// Quarantined is the number moved to quarantine for failing validation.
	Quarantined int `json:"quarantined"`
	// VersionSkips is the number skipped for an unknown format version.
	VersionSkips int `json:"version_skips"`
}

// Verify walks every entry, validates checksum and structure, and
// quarantines the ones that fail — the offline scrub behind
// `dqbfstore verify`. Certificate re-verification against formulas is not
// possible here (the store holds hashes, not formulas); it happens online
// when a lookup hits the entry.
func (s *Store) Verify() (VerifyResult, error) {
	var res VerifyResult
	err := s.walkEntries(func(key, path string, _ os.FileInfo) error {
		res.Checked++
		data, err := os.ReadFile(path)
		if err != nil {
			s.ioErrors.Add(1)
			s.logf("store: verify %s: %v", key[:12], err)
			return nil
		}
		var e Entry
		switch err := e.UnmarshalBinary(data); {
		case err == nil && e.Key == key:
			res.OK++
		case errors.Is(err, ErrVersion):
			res.VersionSkips++
			s.versionSkips.Add(1)
		case err == nil:
			res.Quarantined++
			s.corrupt.Add(1)
			s.quarantine(key, fmt.Sprintf("key mismatch: file claims %s", e.Key))
		default:
			res.Quarantined++
			s.corrupt.Add(1)
			s.quarantine(key, err.Error())
		}
		return nil
	})
	return res, err
}

// EvictOlderThan removes entries whose creation time is before cutoff and
// returns how many were removed — age-based retention for `dqbfstore evict`.
// Entries that fail to decode are left for Verify to quarantine.
func (s *Store) EvictOlderThan(cutoff time.Time) (int, error) {
	evicted := 0
	err := s.walkEntries(func(key, path string, _ os.FileInfo) error {
		data, err := os.ReadFile(path)
		if err != nil {
			return nil
		}
		var e Entry
		if e.UnmarshalBinary(data) != nil {
			return nil
		}
		if time.Unix(e.CreatedUnix, 0).Before(cutoff) {
			if err := os.Remove(path); err == nil {
				evicted++
			}
		}
		return nil
	})
	return evicted, err
}

// Compact removes debris: stray temp files, quarantined files (their
// evidence having been inspected or expired), and empty shard directories.
// It returns how many files were removed.
func (s *Store) Compact() (int, error) {
	removed := 0
	for _, pattern := range []string{
		filepath.Join(s.dir, tmpDir, "*"),
		filepath.Join(s.dir, quarantineDir, "*"),
	} {
		files, err := filepath.Glob(pattern)
		if err != nil {
			continue
		}
		for _, p := range files {
			if os.Remove(p) == nil {
				removed++
			}
		}
	}
	shards, _ := filepath.Glob(filepath.Join(s.dir, entriesDir, "*"))
	for _, shard := range shards {
		os.Remove(shard) // fails (and is kept) unless empty
	}
	return removed, nil
}

// Len returns the number of entries on disk (a directory walk; meant for
// stats endpoints and tests, not hot paths).
func (s *Store) Len() int {
	n := 0
	s.walkEntries(func(string, string, os.FileInfo) error { n++; return nil })
	return n
}
