package atomicio

import (
	"encoding/binary"
	"hash/fnv"
	"path/filepath"
	"strings"
)

// Frame is the integrity framing every store writes through WriteFile
// (result-store entries, prep-cache entries and blobs):
//
//	magic(4) | version(u32) | fingerprint(u64) | keyLen(u32) | key |
//	bodyLen(u64) | FNV-1a(body)(u64) | body
//
// with every integer little-endian. The magic keeps the kinds of file
// apart, the version orphans entries written by an older format, the
// fingerprint ties an entry to the caller's semantics, the embedded key
// makes sanitized-name collisions harmless, and the length and checksum
// catch torn or corrupted bodies.
type Frame struct {
	Magic   [4]byte
	Version uint32
}

// frameHeader is the byte length of the fields before the key.
const frameHeader = 4 + 4 + 8 + 4

// Encode frames body under key and fingerprint.
func (f Frame) Encode(key string, fingerprint uint64, body []byte) []byte {
	b := make([]byte, 0, frameHeader+len(key)+16+len(body))
	b = append(b, f.Magic[:]...)
	b = binary.LittleEndian.AppendUint32(b, f.Version)
	b = binary.LittleEndian.AppendUint64(b, fingerprint)
	b = binary.LittleEndian.AppendUint32(b, uint32(len(key)))
	b = append(b, key...)
	b = binary.LittleEndian.AppendUint64(b, uint64(len(body)))
	b = binary.LittleEndian.AppendUint64(b, checksum(body))
	return append(b, body...)
}

// Decode validates raw against key and fingerprint and returns the
// framed body. Any anomaly (wrong magic or version, fingerprint or key
// mismatch, truncation, checksum failure) is ok=false.
func (f Frame) Decode(key string, fingerprint uint64, raw []byte) (body []byte, ok bool) {
	k, ok := f.key(raw)
	if !ok || string(k) != key || binary.LittleEndian.Uint64(raw[8:16]) != fingerprint {
		return nil, false
	}
	rest := raw[frameHeader+len(k):]
	if len(rest) < 16 {
		return nil, false
	}
	body = rest[16:]
	if binary.LittleEndian.Uint64(rest[:8]) != uint64(len(body)) ||
		binary.LittleEndian.Uint64(rest[8:16]) != checksum(body) {
		return nil, false
	}
	return body, true
}

// Key returns the key embedded in raw, checking only the magic, the
// version and that the key is complete — enough to rebuild an index
// without validating bodies. ok=false on any header anomaly.
func (f Frame) Key(raw []byte) (string, bool) {
	k, ok := f.key(raw)
	return string(k), ok
}

// key is Key without the copy into a string.
func (f Frame) key(raw []byte) ([]byte, bool) {
	if len(raw) < frameHeader || [4]byte(raw[:4]) != f.Magic ||
		binary.LittleEndian.Uint32(raw[4:8]) != f.Version {
		return nil, false
	}
	n := uint64(binary.LittleEndian.Uint32(raw[16:20]))
	if uint64(len(raw)-frameHeader) < n {
		return nil, false
	}
	return raw[frameHeader : frameHeader+n], true
}

func checksum(body []byte) uint64 {
	h := fnv.New64a()
	h.Write(body)
	return h.Sum64()
}

// KeyPath maps key to a file in dir named key+suffix, with every
// character outside [A-Za-z0-9-_@.] replaced by '_' so no key can escape
// dir.
// Collisions after sanitization are harmless: the exact key is embedded
// in the frame and checked on decode.
func KeyPath(dir, key, suffix string) string {
	clean := strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_', r == '@', r == '.':
			return r
		}
		return '_'
	}, key)
	return filepath.Join(dir, clean+suffix)
}
