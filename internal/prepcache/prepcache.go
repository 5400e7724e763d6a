// Package prepcache persists workload preparation artifacts (the training
// Profile and the generated skeleton Set) on disk, so a restarted process
// — most importantly a rebooted r3dlad — serves its first request from a
// cheap file read instead of re-running the training simulation and the
// skeleton generator.
//
// Entries are keyed by "workload@trainBudget" and guarded by a fingerprint
// over the training and evaluation programs: any change to the workload
// builder invalidates the entry. Entries use the atomicio.Frame codec the
// result store shares; writes are atomic (atomicio.WriteFile) and loads
// are corruption-tolerant — a torn write, a version bump, a key or
// fingerprint mismatch, or a checksum failure all read as a cache miss,
// never an error, so the caller silently regenerates.
package prepcache

import (
	"bytes"
	"encoding/binary"
	"encoding/gob"
	"fmt"
	"hash/fnv"
	"os"

	"r3dla/internal/atomicio"
	"r3dla/internal/core"
	"r3dla/internal/faultinject"
	"r3dla/internal/isa"
)

// Version is the on-disk format version; bumping it orphans (and thereby
// regenerates) every existing entry.
const Version = 1

// prepFrame frames a prep-cache entry (magic "R3PC"); blobFrame frames
// a generic blob (StoreBlob/LoadBlob, magic "R3PB"), so the two kinds
// can never be confused for one another even if their keys collide
// after sanitization.
var (
	prepFrame = atomicio.Frame{Magic: [4]byte{'R', '3', 'P', 'C'}, Version: Version}
	blobFrame = atomicio.Frame{Magic: [4]byte{'R', '3', 'P', 'B'}, Version: Version}
)

// Cache is a directory of serialized preparation entries. The zero value
// is not usable; call New. A Cache is safe for concurrent use by multiple
// goroutines and processes: writes are atomic renames and readers only
// ever observe complete files.
type Cache struct {
	dir    string
	faults *faultinject.Plane // nil in production; Load/Store fault gates
}

// New opens (creating if needed) a prep cache rooted at dir.
func New(dir string) (*Cache, error) {
	if dir == "" {
		return nil, fmt.Errorf("prepcache: empty directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("prepcache: %w", err)
	}
	return &Cache{dir: dir}, nil
}

// Dir reports the cache's root directory.
func (c *Cache) Dir() string { return c.dir }

// SetFaults attaches a fault-injection plane (nil detaches). Chaos-only:
// call before the cache sees traffic. Nil-receiver-safe so callers can
// forward without a cache configured.
func (c *Cache) SetFaults(p *faultinject.Plane) {
	if c != nil {
		c.faults = p
	}
}

// payload is the gob-serialized body of an entry. Set.Prog is stripped
// before encoding (the program is rebuilt by the caller and reattached on
// load) — programs are large and the fingerprint already covers them.
type payload struct {
	Prof *core.Profile
	Set  *core.Set
}

// Fingerprint hashes the instruction streams of the given programs; it is
// the guard that ties a cache entry to the exact workload builds that
// produced it.
func Fingerprint(progs ...*isa.Program) uint64 {
	h := fnv.New64a()
	var buf [28]byte
	for _, p := range progs {
		binary.LittleEndian.PutUint64(buf[:8], uint64(p.Entry))
		binary.LittleEndian.PutUint64(buf[8:16], uint64(len(p.Insts)))
		h.Write(buf[:16])
		for i := range p.Insts {
			in := &p.Insts[i]
			buf[0] = byte(in.Op)
			buf[1] = in.Rd
			buf[2] = in.Rs1
			buf[3] = in.Rs2
			binary.LittleEndian.PutUint64(buf[4:12], uint64(in.Imm))
			binary.LittleEndian.PutUint32(buf[12:16], uint32(in.Targ))
			h.Write(buf[:16])
		}
	}
	return h.Sum64()
}

// path maps a key to its file (see atomicio.KeyPath).
func (c *Cache) path(key, suffix string) string { return atomicio.KeyPath(c.dir, key, suffix) }

// Store serializes (prof, set) under key, guarded by the fingerprint of
// (train, eval). The write is atomic: concurrent readers see either the
// old entry or the new one, never a torn file.
func (c *Cache) Store(key string, train, eval *isa.Program, prof *core.Profile, set *core.Set) error {
	stripped := *set
	stripped.Prog = nil
	var body bytes.Buffer
	if err := gob.NewEncoder(&body).Encode(payload{Prof: prof, Set: &stripped}); err != nil {
		return fmt.Errorf("prepcache: encode %s: %w", key, err)
	}

	frame := prepFrame.Encode(key, Fingerprint(train, eval), body.Bytes())
	// atomicio carries the full durability ceremony: pid-unique temp file,
	// fsync before rename, parent-directory fsync after.
	if err := atomicio.WriteFile(c.path(key, ".prep"), frame, 0o644, c.faults, faultinject.PrepCacheStore); err != nil {
		return fmt.Errorf("prepcache: write %s: %w", key, err)
	}
	return nil
}

// Load reads the entry for key, validating it against the fingerprint of
// (train, eval). Any problem — missing file, wrong magic or version, key
// or fingerprint mismatch, truncation, checksum failure, undecodable body
// — is a miss (ok=false), signaling the caller to regenerate. On a hit the
// returned Set has eval reattached as its Prog.
func (c *Cache) Load(key string, train, eval *isa.Program) (prof *core.Profile, set *core.Set, ok bool) {
	if c.faults.Stall(faultinject.PrepCacheLoad) != nil {
		return nil, nil, false // injected read fault = silent miss
	}
	raw, err := os.ReadFile(c.path(key, ".prep"))
	if err != nil {
		return nil, nil, false
	}
	body, ok := prepFrame.Decode(key, Fingerprint(train, eval), raw)
	if !ok {
		return nil, nil, false
	}
	var p payload
	if err := gob.NewDecoder(bytes.NewReader(body)).Decode(&p); err != nil {
		return nil, nil, false
	}
	if p.Prof == nil || p.Set == nil {
		return nil, nil, false
	}
	p.Set.Prog = eval
	return p.Prof, p.Set, true
}

// StoreBlob persists an opaque body under key, guarded by an arbitrary
// caller-supplied fingerprint. Blobs share the prep entries' framing,
// atomicity, and corruption tolerance but use their own magic and file
// suffix, so the two namespaces never collide. The tier package uses
// blobs to persist per-workload calibration profiles.
func (c *Cache) StoreBlob(key string, fingerprint uint64, body []byte) error {
	frame := blobFrame.Encode(key, fingerprint, body)
	if err := atomicio.WriteFile(c.path(key, ".blob"), frame, 0o644, c.faults, faultinject.PrepCacheStore); err != nil {
		return fmt.Errorf("prepcache: write blob %s: %w", key, err)
	}
	return nil
}

// LoadBlob reads the blob stored under key, validating it against
// fingerprint. Like Load, every anomaly is a miss (ok=false), never an
// error.
func (c *Cache) LoadBlob(key string, fingerprint uint64) (body []byte, ok bool) {
	if c.faults.Stall(faultinject.PrepCacheLoad) != nil {
		return nil, false // injected read fault = silent miss
	}
	raw, err := os.ReadFile(c.path(key, ".blob"))
	if err != nil {
		return nil, false
	}
	return blobFrame.Decode(key, fingerprint, raw)
}
