package checkpoint

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"fedms/internal/golden"
)

// TestGoldenAsyncMeta pins the byte format of an async-meta checkpoint
// (the file a tolerant PS writes at every window close): saving the
// fixed state must reproduce the committed vector, and the committed
// vector must load back into the same state. Generated at commit
// b0f2c4c, before the round-lifecycle unification.
func TestGoldenAsyncMeta(t *testing.T) {
	st := &State{Round: 7, Seed: 42, Params: []float64{1.5, -2.25, 0, 3.125}}
	async := AsyncState{
		Window: 2 * time.Second, Staleness: 3,
		SpillPath: "/var/lib/fedms/ps1.ckpt.spill", SpillRecords: 2, SpillBytes: 170,
	}
	WriteAsyncMeta(st, async)
	var buf bytes.Buffer
	if err := Save(&buf, st); err != nil {
		t.Fatal(err)
	}

	pinned := golden.Check(t, "testdata/async_meta.hex", buf.Bytes())

	loaded, err := Load(bytes.NewReader(pinned))
	if err != nil {
		t.Fatalf("Load(golden): %v", err)
	}
	if loaded.Round != st.Round || loaded.Seed != st.Seed || !reflect.DeepEqual(loaded.Params, st.Params) {
		t.Fatalf("Load(golden) = %+v, want %+v", loaded, st)
	}
	got, ok, err := ReadAsyncMeta(loaded)
	if err != nil || !ok || got != async {
		t.Fatalf("ReadAsyncMeta(golden) = %+v, %v, %v; want %+v", got, ok, err, async)
	}
}
