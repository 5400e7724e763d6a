package atomicio

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// goldenFrames are fixed (magic, fingerprint, key, body) tuples, one per
// magic in use. testdata/<magic>.frame holds their encodings as the
// result store and the prep cache wrote them before the codec moved into
// this package: entries already on disk must keep hitting.
var goldenFrames = []struct {
	magic string
	fp    uint64
	key   string
	body  string
}{
	{"R3RS", 0x0123456789abcdef, "mcf|r3:boq=512/fq=16@4000", `{"ipc":1.25}`},
	{"R3PC", 0xfedcba9876543210, "mcf@2000", "prep body\x00\x01\x02"},
	{"R3PB", 42, "tiercal-mcf@1000", "calibration blob"},
}

// TestFrameGolden pins the exact on-disk layout: encoding each tuple
// reproduces the committed bytes, and decoding those bytes gives the
// key and body back.
func TestFrameGolden(t *testing.T) {
	for _, g := range goldenFrames {
		t.Run(g.magic, func(t *testing.T) {
			want, err := os.ReadFile(filepath.Join("testdata", g.magic+".frame"))
			if err != nil {
				t.Fatal(err)
			}
			f := Frame{Magic: [4]byte([]byte(g.magic)), Version: 1}
			if got := f.Encode(g.key, g.fp, []byte(g.body)); !bytes.Equal(got, want) {
				t.Fatalf("encoding drifted from the committed frame:\n got %x\nwant %x", got, want)
			}
			if k, ok := f.Key(want); !ok || k != g.key {
				t.Fatalf("Key = (%q, %v), want (%q, true)", k, ok, g.key)
			}
			body, ok := f.Decode(g.key, g.fp, want)
			if !ok || string(body) != g.body {
				t.Fatalf("Decode = (%q, %v), want (%q, true)", body, ok, g.body)
			}
		})
	}
}

// TestFrameDecodeRejects covers the two length fields, which the
// stores' corruption tests never damage: a frame whose key length or
// body length disagrees with its bytes is a miss.
func TestFrameDecodeRejects(t *testing.T) {
	g := goldenFrames[0]
	f := Frame{Magic: [4]byte([]byte(g.magic)), Version: 1}
	good := f.Encode(g.key, g.fp, []byte(g.body))
	for name, at := range map[string]int{"key length": 16, "body length": frameHeader + len(g.key)} {
		bad := bytes.Clone(good)
		bad[at] ^= 0xff
		if body, ok := f.Decode(g.key, g.fp, bad); ok {
			t.Errorf("%s: damaged frame decoded to %q", name, body)
		}
	}
}
