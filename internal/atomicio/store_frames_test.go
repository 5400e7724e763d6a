package atomicio_test

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"r3dla/internal/prepcache"
	"r3dla/internal/resultstore"
)

// TestStoreFramesGolden checks the stores' wiring of the frame: a result
// store Put and a prep-cache StoreBlob write exactly the committed
// testdata frames, and each store reads its committed frame back. It
// goes through the stores' public APIs only, so it holds against any
// codec behind them.
func TestStoreFramesGolden(t *testing.T) {
	golden := func(t *testing.T, magic string) []byte {
		t.Helper()
		b, err := os.ReadFile(filepath.Join("testdata", magic+".frame"))
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	// only returns the single file a store wrote into dir.
	only := func(t *testing.T, dir, pattern string) string {
		t.Helper()
		m, err := filepath.Glob(filepath.Join(dir, pattern))
		if err != nil || len(m) != 1 {
			t.Fatalf("want one %s file in the store, got %v (%v)", pattern, m, err)
		}
		return m[0]
	}
	check := func(t *testing.T, path string, want []byte) {
		t.Helper()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("store wrote\n %x\nwant committed frame\n %x", got, want)
		}
	}

	t.Run("R3RS", func(t *testing.T) {
		const key, fp, body = "mcf|r3:boq=512/fq=16@4000", 0x0123456789abcdef, `{"ipc":1.25}`
		want := golden(t, "R3RS")
		dir := t.TempDir()
		s, err := resultstore.Open(dir, fp, 0)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Put(key, []byte(body)); err != nil {
			t.Fatal(err)
		}
		path := only(t, dir, "*.res")
		check(t, path, want)

		// A reopened store indexes the committed frame and serves it.
		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		s2, err := resultstore.Open(dir, fp, 0)
		if err != nil {
			t.Fatal(err)
		}
		if got, ok := s2.Get(key); !ok || string(got) != body || s2.Len() != 1 {
			t.Fatalf("Get = (%q, %v) with %d entries, want (%q, true) with 1", got, ok, s2.Len(), body)
		}
	})

	t.Run("R3PB", func(t *testing.T) {
		const key, fp, body = "tiercal-mcf@1000", 42, "calibration blob"
		want := golden(t, "R3PB")
		dir := t.TempDir()
		c, err := prepcache.New(dir)
		if err != nil {
			t.Fatal(err)
		}
		if err := c.StoreBlob(key, fp, []byte(body)); err != nil {
			t.Fatal(err)
		}
		path := only(t, dir, "*.blob")
		check(t, path, want)

		if err := os.WriteFile(path, want, 0o644); err != nil {
			t.Fatal(err)
		}
		if got, ok := c.LoadBlob(key, fp); !ok || string(got) != body {
			t.Fatalf("LoadBlob = (%q, %v), want (%q, true)", got, ok, body)
		}
	})
}
