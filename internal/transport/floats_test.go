package transport

import (
	"bytes"
	"math"
	"math/rand/v2"
	"testing"
)

// TestFloatsPortableMatchesNative: the per-element conversions, the
// only path a big-endian host runs, write and read exactly the bytes
// of the block copies a little-endian host runs — bit for bit, NaN
// payloads and −0 included.
func TestFloatsPortableMatchesNative(t *testing.T) {
	rng := rand.New(rand.NewPCG(1, 2))
	special := []float64{
		math.Copysign(0, -1), 0, math.Inf(1), math.Inf(-1), math.NaN(),
		math.Float64frombits(0x7ff0_0000_0000_0001), // signalling NaN
		math.Float64frombits(0xfff8_dead_beef_0001), // negative quiet NaN with a payload
		5e-324, -math.MaxFloat64,
	}
	for _, n := range []int{0, 1, 7, 1000} {
		v := make([]float64, n)
		for i := range v {
			if rng.IntN(4) == 0 {
				v[i] = special[rng.IntN(len(special))]
			} else {
				v[i] = math.Float64frombits(rng.Uint64())
			}
		}
		native := make([]byte, 8*n)
		putFloatsLE(native, v)
		portable := make([]byte, 8*n)
		putFloatsPortable(portable, v)
		if !bytes.Equal(native, portable) {
			t.Fatalf("n=%d: native encode %x, portable %x", n, native, portable)
		}

		for name, fromLE := range map[string]func([]float64){"native": floatsFromLE, "portable": floatsFromLEPortable} {
			w := make([]float64, n)
			copy(floatBytes(w), native)
			fromLE(w)
			for i := range v {
				if math.Float64bits(w[i]) != math.Float64bits(v[i]) {
					t.Fatalf("n=%d %s decode: w[%d] = %#x, want %#x", n, name, i, math.Float64bits(w[i]), math.Float64bits(v[i]))
				}
			}
		}
	}
}
