// Package golden compares bytes a test produced against a hex vector
// committed under the calling package's testdata/ — the "pin formats
// before refactoring" idiom of ROADMAP item 4. Imported by tests only.
package golden

import (
	"bytes"
	"encoding/hex"
	"flag"
	"os"
	"strings"
	"testing"
)

var update = flag.Bool("update", false, "rewrite the testdata golden vectors from the current code")

// Check fails the test unless got equals the hex vector at path, and
// returns the pinned bytes so the caller can also prove they still read
// back. With -update it rewrites the vector from got first.
func Check(t *testing.T, path string, got []byte) []byte {
	t.Helper()
	if *update {
		if err := os.WriteFile(path, []byte(hex.EncodeToString(got)+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	pinned, err := hex.DecodeString(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatalf("%s: %v", path, err)
	}
	if !bytes.Equal(got, pinned) {
		t.Fatalf("bytes drifted from %s:\n got %x\nwant %x", path, got, pinned)
	}
	return pinned
}
