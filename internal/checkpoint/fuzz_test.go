package checkpoint

import (
	"bytes"
	"encoding/binary"
	"runtime"
	"testing"
)

// FuzzLoad asserts the checkpoint parser never panics on arbitrary
// bytes and round-trips anything it accepts.
func FuzzLoad(f *testing.F) {
	var buf bytes.Buffer
	_ = Save(&buf, &State{Round: 1, Seed: 2, Meta: map[string]string{"k": "v"}, Params: []float64{1, 2}})
	f.Add(buf.Bytes())
	f.Add([]byte("FMCK"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0x41}, 128))

	f.Fuzz(func(t *testing.T, data []byte) {
		st, err := Load(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := Save(&out, st); err != nil {
			t.Fatalf("re-save of valid state failed: %v", err)
		}
		again, err := Load(&out)
		if err != nil {
			t.Fatalf("re-load failed: %v", err)
		}
		if again.Round != st.Round || again.Seed != st.Seed || len(again.Params) != len(st.Params) {
			t.Fatal("save/load not idempotent")
		}
	})
}

// TestLoadLyingDimAllocatesLittle: a header that claims 2^29 parameters
// over a few bytes of body is rejected without the 4 GiB allocation the
// claim asks for.
func TestLoadLyingDimAllocatesLittle(t *testing.T) {
	var buf bytes.Buffer
	_ = Save(&buf, &State{Params: []float64{1}})
	data := buf.Bytes()
	// The dimension is the u64 before the one parameter and the CRC.
	dimAt := len(data) - 4 - 8 - 8
	binary.LittleEndian.PutUint64(data[dimAt:], 1<<29)
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Load(bytes.NewReader(data)); err == nil {
		t.Fatal("Load accepted a truncated parameter vector")
	}
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got > 1<<22 {
		t.Fatalf("Load allocated %d bytes for a %d-byte checkpoint", got, len(data))
	}
}
