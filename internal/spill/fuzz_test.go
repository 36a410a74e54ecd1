package spill

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// FuzzOpen asserts that Open never panics on arbitrary segment bytes,
// that what it keeps is a prefix of the segment holding exactly the
// records it reports, and that this prefix re-opens unchanged.
func FuzzOpen(f *testing.F) {
	path := filepath.Join(f.TempDir(), "seed")
	b := New(Config{MemLimit: -1, Path: path})
	for i := 0; i < 3; i++ {
		if err := b.Add(rec(i, 16)); err != nil {
			f.Fatal(err)
		}
	}
	if _, err := b.Flush(); err != nil {
		f.Fatal(err)
	}
	seg, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	b.Abort()
	f.Add(seg)
	f.Add(seg[:len(seg)-5])
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xff}, 64))

	f.Fuzz(func(t *testing.T, data []byte) {
		dir := t.TempDir()
		open := func(name string, seg []byte) ([]byte, []Record) {
			path := filepath.Join(dir, name)
			if err := os.WriteFile(path, seg, 0o644); err != nil {
				t.Fatal(err)
			}
			b, n, err := Open(path, Config{})
			if err != nil {
				t.Fatalf("Open: %v", err)
			}
			defer b.Close()
			kept, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			recs := drain(t, b)
			if len(recs) != n {
				t.Fatalf("Open reported %d records, popped %d", n, len(recs))
			}
			return kept, recs
		}
		kept, recs := open("fuzz", data)
		if !bytes.HasPrefix(data, kept) {
			t.Fatalf("Open kept %d bytes that are not a prefix of the %d-byte segment", len(kept), len(data))
		}
		again, recsAgain := open("again", kept)
		if !bytes.Equal(again, kept) || !reflect.DeepEqual(recsAgain, recs) {
			t.Fatalf("the recovered %d-byte prefix changed on re-open", len(kept))
		}
	})
}
