// Package resultstore persists finished simulation answers on disk, so
// the whole answer set survives an r3dlad restart: a rebooted server (or
// a sibling process sharing the directory) serves a repeated request from
// a file read instead of re-running the cycle-accurate simulation. It is
// the durable tier of the multi-tenant result fabric — the in-memory
// singleflight caches dedup within a process lifetime, the store dedups
// across lifetimes and across tenants.
//
// The store is content-addressed by the caller's canonical run key
// (workload|configKey@budget) and holds opaque byte payloads, so it never
// imports the result types it persists. Entries share the prep cache's
// integrity discipline: the atomicio.Frame header
// (magic/version/fingerprint/key/length/checksum) guards every payload,
// writes are atomic (unique per-process temp file + rename), and any
// anomaly on read — torn write, version bump, fingerprint or key
// mismatch, checksum failure — is a silent miss that also deletes the
// damaged file, never an error. The caller regenerates and overwrites.
//
// The store is LRU-bounded by entry count: recency is the file mtime
// (refreshed on every hit), so the eviction order itself survives
// restarts. Concurrent use by multiple goroutines is safe; concurrent use
// by multiple processes is safe in the prep cache's sense — atomic renames
// mean readers only ever observe complete files.
package resultstore

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"r3dla/internal/atomicio"
	"r3dla/internal/faultinject"
)

// Version is the on-disk format version; bumping it orphans (and thereby
// regenerates) every existing entry.
const Version = 1

// frame is the result-store file framing (magic "R3RS").
var frame = atomicio.Frame{Magic: [4]byte{'R', '3', 'R', 'S'}, Version: Version}

// ext is the entry file suffix.
const ext = ".res"

// Stats is a point-in-time snapshot of the store's counters. Hits,
// Misses, Evictions and Puts are cumulative for this process; Entries is
// the live entry count.
type Stats struct {
	Hits      int64 `json:"hits"`
	Misses    int64 `json:"misses"`
	Evictions int64 `json:"evictions"`
	Puts      int64 `json:"puts"`
	Entries   int   `json:"entries"`
}

// Store is a directory of result entries plus an in-memory LRU index.
// The zero value is not usable; call Open.
type Store struct {
	dir    string
	fp     uint64             // caller's fingerprint, folded into every entry header
	max    int                // entry bound (0 = unlimited)
	faults *faultinject.Plane // nil in production; Get/Put fault gates

	mu      sync.Mutex
	order   []string // keys, least-recently-used first
	present map[string]bool

	hits, misses, evictions, puts int64
}

// Open opens (creating if needed) a result store rooted at dir.
// fingerprint ties every entry to the caller's result semantics — bump it
// (or fold a version constant into it) and every existing entry reads as
// a miss. maxEntries bounds the store size (0 = unlimited); existing
// entries beyond the bound are evicted oldest-first immediately.
func Open(dir string, fingerprint uint64, maxEntries int) (*Store, error) {
	if dir == "" {
		return nil, fmt.Errorf("resultstore: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("resultstore: %w", err)
	}
	s := &Store{dir: dir, fp: fingerprint, max: maxEntries, present: make(map[string]bool)}
	if err := s.scan(); err != nil {
		return nil, err
	}
	s.mu.Lock()
	s.evictOverLocked()
	s.mu.Unlock()
	return s, nil
}

// Dir reports the store's root directory.
func (s *Store) Dir() string { return s.dir }

// SetFaults attaches a fault-injection plane (nil detaches). Chaos-only:
// call before the store sees traffic.
func (s *Store) SetFaults(p *faultinject.Plane) { s.faults = p }

// Len reports the live entry count.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.order)
}

// Stats snapshots the store's counters.
func (s *Store) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return Stats{
		Hits: s.hits, Misses: s.misses, Evictions: s.evictions, Puts: s.puts,
		Entries: len(s.order),
	}
}

// scan rebuilds the LRU index from the directory: every well-formed entry
// file joins the index ordered by mtime (oldest first); unreadable or
// foreign files are left alone (they read as misses and are reclaimed
// when their key is next written).
func (s *Store) scan() error {
	ents, err := os.ReadDir(s.dir)
	if err != nil {
		return fmt.Errorf("resultstore: %w", err)
	}
	type rec struct {
		key string
		mod time.Time
	}
	var recs []rec
	for _, de := range ents {
		name := de.Name()
		if de.IsDir() || !strings.HasSuffix(name, ext) {
			continue
		}
		raw, err := os.ReadFile(filepath.Join(s.dir, name))
		if err != nil {
			continue
		}
		key, ok := frame.Key(raw)
		if !ok {
			continue
		}
		info, err := de.Info()
		if err != nil {
			continue
		}
		recs = append(recs, rec{key: key, mod: info.ModTime()})
	}
	sort.Slice(recs, func(i, j int) bool {
		if !recs[i].mod.Equal(recs[j].mod) {
			return recs[i].mod.Before(recs[j].mod)
		}
		return recs[i].key < recs[j].key // deterministic order for equal mtimes
	})
	for _, r := range recs {
		if !s.present[r.key] {
			s.present[r.key] = true
			s.order = append(s.order, r.key)
		}
	}
	return nil
}

// path maps a key to its entry file (see atomicio.KeyPath).
func (s *Store) path(key string) string { return atomicio.KeyPath(s.dir, key, ext) }

// Get returns the stored payload for key. Any anomaly — missing file,
// damaged header or body, wrong fingerprint — is a miss; a damaged file
// is deleted so the next Put rebuilds it cleanly. A hit refreshes the
// entry's recency (in memory and, best-effort, the file mtime, so LRU
// order survives restarts).
func (s *Store) Get(key string) ([]byte, bool) {
	if s.faults.Stall(faultinject.ResultStoreGet) != nil {
		// An injected read fault is the same silent miss a damaged
		// frame would be — the caller regenerates.
		s.mu.Lock()
		s.misses++
		s.mu.Unlock()
		return nil, false
	}
	path := s.path(key)
	s.mu.Lock()
	defer s.mu.Unlock()
	raw, err := os.ReadFile(path)
	if err != nil {
		s.misses++
		s.dropLocked(key)
		return nil, false
	}
	body, ok := frame.Decode(key, s.fp, raw)
	if !ok {
		s.misses++
		s.dropLocked(key)
		os.Remove(path)
		return nil, false
	}
	s.hits++
	s.touchLocked(key)
	now := time.Now()
	os.Chtimes(path, now, now) // best-effort: persists recency across restarts
	return body, true
}

// Put stores payload under key (overwriting any previous entry) and
// evicts least-recently-used entries beyond the bound. The write is
// atomic and durable: temp file + fsync + rename + parent-directory
// fsync, so concurrent readers — in this process or another sharing the
// directory — see either the old entry or the new one, never a torn
// file, and a power loss after Put returns cannot roll the entry back.
func (s *Store) Put(key string, payload []byte) error {
	framed := frame.Encode(key, s.fp, payload)
	if err := atomicio.WriteFile(s.path(key), framed, 0o644, s.faults, faultinject.ResultStorePut); err != nil {
		return fmt.Errorf("resultstore: write %s: %w", key, err)
	}
	s.mu.Lock()
	s.puts++
	s.touchLocked(key)
	s.evictOverLocked()
	s.mu.Unlock()
	return nil
}

// touchLocked moves key to the most-recently-used end (inserting it if
// new).
func (s *Store) touchLocked(key string) {
	if s.present[key] {
		for i, k := range s.order {
			if k == key {
				s.order = append(append(s.order[:i:i], s.order[i+1:]...), key)
				return
			}
		}
	}
	s.present[key] = true
	s.order = append(s.order, key)
}

// dropLocked removes key from the index (file already gone or damaged).
func (s *Store) dropLocked(key string) {
	if !s.present[key] {
		return
	}
	delete(s.present, key)
	for i, k := range s.order {
		if k == key {
			s.order = append(s.order[:i:i], s.order[i+1:]...)
			return
		}
	}
}

// evictOverLocked deletes least-recently-used entries until the store is
// within its bound.
func (s *Store) evictOverLocked() {
	if s.max <= 0 {
		return
	}
	for len(s.order) > s.max {
		victim := s.order[0]
		s.order = s.order[1:]
		delete(s.present, victim)
		os.Remove(s.path(victim))
		s.evictions++
	}
}
