package compress

import (
	"encoding/binary"
	"fmt"
	"math"
	"slices"
	"sort"
	"testing"

	"fedms/internal/golden"
	"fedms/internal/randx"
)

// stableOrder and oracleTopK are the stable-sort selection every
// magnitude top-k ran before the introselect: sort all indices by |v|
// descending, stably, keep the first k, sort them. The NaN clause is
// the one addition: the stable sort's NaN placement depended on where
// the NaN sat, and the contract now ranks NaN above +Inf.
func stableOrder(v []float64) []int {
	order := make([]int, len(v))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool {
		x, y := v[order[a]], v[order[b]]
		if math.IsNaN(x) || math.IsNaN(y) {
			return math.IsNaN(x) && !math.IsNaN(y)
		}
		return math.Abs(x) > math.Abs(y)
	})
	return order
}

func oracleTopK(order []int, k int) []int {
	pick := slices.Clone(order[:k])
	sort.Ints(pick)
	return pick
}

// checkTopK runs both callers of the selection — TopKIndices and the
// buffer-reusing codec path (c carries buffers across calls) — against
// the oracle's pick.
func checkTopK(t *testing.T, c *topkCodec, v []float64, k int, want []int) {
	t.Helper()
	if got := TopKIndices(v, k); !slices.Equal(got, want) {
		t.Fatalf("TopKIndices(d=%d, k=%d) = %v, want %v\nv = %v", len(v), k, got, want, v)
	}
	c.sparsify(v, k, nil)
	for i, idx := range want {
		if int(c.s.Indices[i]) != idx {
			t.Fatalf("d=%d k=%d: codec picked %v, want %v", len(v), k, c.s.Indices, want)
		}
		if math.Float64bits(c.s.Values[i]) != math.Float64bits(v[idx]) {
			t.Fatalf("d=%d k=%d: value at %d is %v, want %v", len(v), k, idx, c.s.Values[i], v[idx])
		}
	}
}

// TestTopKMatchesStableSort draws random d in [1, 300] and k in [1, d]
// over the value distributions that stress the order: continuous,
// heavy ties, signed zeros and infinities, subnormals, and quantised.
func TestTopKMatchesStableSort(t *testing.T) {
	rng := randx.New(11)
	specials := []float64{0, math.Copysign(0, -1), math.Inf(1), math.Inf(-1), 1, -1}
	dists := []func() float64{
		rng.NormFloat64,
		func() float64 { return float64(rng.IntN(7) - 3) },
		func() float64 { return specials[rng.IntN(len(specials))] },
		func() float64 { return float64(rng.IntN(5)-2) * 5e-324 },
		func() float64 { return math.Round(4*rng.NormFloat64()) / 4 },
	}
	var c topkCodec
	for _, draw := range dists {
		for trial := 0; trial < 200; trial++ {
			v := make([]float64, 1+rng.IntN(300))
			for i := range v {
				v[i] = draw()
			}
			k := 1 + rng.IntN(len(v))
			checkTopK(t, &c, v, k, oracleTopK(stableOrder(v), k))
		}
	}
}

// TestTopKAdversarialShapes checks the inputs that push a naive
// quickselect quadratic — all-equal, sorted, reverse-sorted and
// organ-pipe — at d = 1e5. BenchmarkCodec's all-ties variant times the
// first of them.
func TestTopKAdversarialShapes(t *testing.T) {
	const d = 100_000
	shapes := []struct {
		name string
		f    func(i int) float64
	}{
		{"all-equal", func(int) float64 { return 1 }},
		{"sorted", func(i int) float64 { return float64(i) }},
		{"reversed", func(i int) float64 { return float64(d - i) }},
		{"organ-pipe", func(i int) float64 { return float64(min(i, d-1-i)) }},
	}
	var c topkCodec
	for _, sh := range shapes {
		v := make([]float64, d)
		for i := range v {
			v[i] = sh.f(i)
		}
		order := stableOrder(v)
		for _, k := range []int{1, d / 10, d / 2, d} {
			t.Run(fmt.Sprintf("%s/k=%d", sh.name, k), func(t *testing.T) {
				checkTopK(t, &c, v, k, oracleTopK(order, k))
			})
		}
	}
}

// TestTopKNaNRanksAboveInf pins the NaN rule: NaN outranks +Inf, NaNs
// of any payload or sign tie with each other, and ties go to the lower
// index, wherever the NaNs sit.
func TestTopKNaNRanksAboveInf(t *testing.T) {
	negNaN := math.Float64frombits(0xFFF8000000000000)
	payNaN := math.Float64frombits(0x7FF0000000000001)
	v := []float64{1, math.Inf(1), negNaN, 2, math.NaN(), math.Inf(-1), payNaN}
	for i, want := range [][]int{
		{2},
		{2, 4},
		{2, 4, 6},
		{1, 2, 4, 6},
		{1, 2, 4, 5, 6},
		{1, 2, 3, 4, 5, 6},
	} {
		if got := TopKIndices(v, i+1); !slices.Equal(got, want) {
			t.Errorf("k=%d: got %v, want %v", i+1, got, want)
		}
	}
}

// FuzzTopKOrder holds the selection to the oracle on arbitrary float64
// bit patterns — every NaN payload, both zeros, subnormals — and any k.
func FuzzTopKOrder(f *testing.F) {
	floats := func(v ...float64) []byte {
		var b []byte
		for _, x := range v {
			b = binary.LittleEndian.AppendUint64(b, math.Float64bits(x))
		}
		return b
	}
	f.Add(floats(topkTiesVec()...), uint16(8))
	f.Add(floats(1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1), uint16(7))
	f.Add(floats(-2, 2, -2, 2, math.Copysign(0, -1), 0), uint16(3))
	f.Add(floats(math.NaN(), math.Inf(1), 5e-324, math.NaN(), -1), uint16(2))
	f.Fuzz(func(t *testing.T, data []byte, k uint16) {
		v := make([]float64, len(data)/8)
		if len(v) == 0 {
			return
		}
		for i := range v {
			v[i] = math.Float64frombits(binary.LittleEndian.Uint64(data[8*i:]))
		}
		var c topkCodec
		kk := 1 + int(k)%len(v)
		checkTopK(t, &c, v, kk, oracleTopK(stableOrder(v), kk))
	})
}

// TestTopKEncodeZeroAlloc: after one warm-up call sizes the codec's
// scratch, a steady-state top-k encode at d = 1e5 allocates nothing.
func TestTopKEncodeZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	const d = 100_000
	v := make([]float64, d)
	randx.Normal(randx.New(5), v, 0, 1)
	for _, spec := range []string{"topk:0.1", "ef+topk:0.1"} {
		sp, err := ParseSpec(spec)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sp.NewCodec(1)
		if err != nil {
			t.Fatal(err)
		}
		_, buf := c.AppendEncode(nil, v)
		if allocs := testing.AllocsPerRun(5, func() { _, buf = c.AppendEncode(buf[:0], v) }); allocs != 0 {
			t.Errorf("%s: %v allocs per encode, want 0", spec, allocs)
		}
	}
}

// topkTiesVec is the golden input: ±Inf, an exact opposite-sign tie
// (3, −3), a six-entry ±1 tie block that straddles the k-th position at
// d = 16, k = 8, ±0, and subnormals of both signs.
func topkTiesVec() []float64 {
	return []float64{
		math.Inf(1), math.Inf(-1), 3, -3,
		1, -1, 1, 0, -1, 1, -1,
		math.Copysign(0, -1), 5e-324, -5e-324, 2.2250738585072009e-308, 0.5,
	}
}

// TestGoldenTopKTies pins the sparse payloads of topk:0.5 and two
// rounds of ef+topk:0.5 on topkTiesVec, concatenated. The vector was
// generated against the stable-sort selection, so it witnesses that the
// selected set — and therefore every wire byte — survives any change of
// selection algorithm.
func TestGoldenTopKTies(t *testing.T) {
	v := topkTiesVec()
	var got []byte
	for _, run := range []struct {
		spec   string
		rounds int
	}{{"topk:0.5", 1}, {"ef+topk:0.5", 2}} {
		sp, err := ParseSpec(run.spec)
		if err != nil {
			t.Fatal(err)
		}
		c, err := sp.NewCodec(1)
		if err != nil {
			t.Fatal(err)
		}
		for r := 0; r < run.rounds; r++ {
			var enc Encoding
			start := len(got)
			enc, got = c.AppendEncode(got, v)
			if enc != EncSparse {
				t.Fatalf("%s: encoding %v, want sparse", run.spec, enc)
			}
			canonicalNaNs(got[start:])
		}
	}
	golden.Check(t, "testdata/topk_ties.hex", got)
}

// canonicalNaNs rewrites every NaN value of a sparse payload to the
// positive quiet NaN. Error feedback keeps Inf − Inf = NaN as the
// residual of a kept ±Inf, and the sign of that NaN is
// architecture-specific (amd64 sets it, arm64 does not); only the
// selected indices and non-NaN values are the contract.
func canonicalNaNs(payload []byte) {
	n := int(binary.LittleEndian.Uint32(payload[4:]))
	vals := payload[8+4*n:]
	for i := 0; i < n; i++ {
		if math.IsNaN(math.Float64frombits(binary.LittleEndian.Uint64(vals[8*i:]))) {
			binary.LittleEndian.PutUint64(vals[8*i:], 0x7FF8000000000000)
		}
	}
}
