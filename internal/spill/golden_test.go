package spill

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"fedms/internal/compress"
	"fedms/internal/golden"
)

// TestGoldenSegment pins the spill segment byte format: a flushed
// segment holding one dense and one top-k record must match the
// committed vector byte for byte, and the committed vector must reopen
// into the same two records. The vector was generated at commit
// b0f2c4c (before the round-lifecycle unification), so any drift here
// is a format change, not a refactor.
func TestGoldenSegment(t *testing.T) {
	vec := []float64{1.5, -2.25, 0, 3.125, -0.5, 8}
	encode := func(spec string) (byte, []byte) {
		sp, err := compress.ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sp.NewCodec(1)
		if err != nil {
			t.Fatal(err)
		}
		enc, data := c.AppendEncode(nil, vec)
		return byte(enc), data
	}
	denseEnc, dense := encode("dense")
	topkEnc, topk := encode("topk:0.5")
	want := []Record{
		{Client: 3, Server: 1, Origin: 4, Due: 6, Enc: denseEnc, Data: dense},
		{Client: 5, Server: 0, Origin: 5, Due: 5, Enc: topkEnc, Data: topk},
	}

	path := filepath.Join(t.TempDir(), "seg")
	b := New(Config{MemLimit: -1, Path: path})
	for _, r := range want {
		if err := b.Add(r); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := b.Flush(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	b.Abort()

	pinned := golden.Check(t, "testdata/segment_dense_topk.hex", got)

	// The pinned bytes must also read back: a segment written by an
	// older build is what a checkpoint restart reopens.
	old := filepath.Join(t.TempDir(), "old")
	if err := os.WriteFile(old, pinned, 0o644); err != nil {
		t.Fatal(err)
	}
	rb, n, err := Open(old, Config{})
	if err != nil || n != len(want) {
		t.Fatalf("Open(golden) = %d records, %v; want %d", n, err, len(want))
	}
	defer rb.Abort()
	for i, w := range want {
		r, ok, err := rb.Pop()
		if err != nil || !ok {
			t.Fatalf("Pop %d: ok=%v err=%v", i, ok, err)
		}
		if r.Client != w.Client || r.Server != w.Server || r.Origin != w.Origin ||
			r.Due != w.Due || r.Enc != w.Enc || !bytes.Equal(r.Data, w.Data) {
			t.Fatalf("record %d = %+v, want %+v", i, r, w)
		}
		if _, err := compress.ParsePayload(compress.Encoding(r.Enc), r.Data); err != nil {
			t.Fatalf("record %d payload: %v", i, err)
		}
	}
}
