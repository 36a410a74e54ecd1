package aggregate

import (
	"math"
	"testing"
	"testing/quick"

	"fedms/internal/compress"
	"fedms/internal/randx"
)

// payloadSpecs enumerates every registered codec family (plus the
// error-feedback wrapper) for the differential tier: one spec string
// per distinct payload shape the fused path can meet on the wire.
var payloadSpecs = []string{
	"dense",
	"topk:0.01", "topk:0.25",
	"randk:0.2",
	"q8", "q4", "q1",
	"ef+topk:0.1", "ef+q8",
}

// encodeViews runs vecs through fresh per-client codecs for spec and
// returns parsed payload views plus the densified reference vectors
// (decoded through the pre-existing DecodePayload path, which is the
// oracle the fused kernels are measured against).
func encodeViews(t testing.TB, spec string, vecs [][]float64, seed uint64) ([]compress.Payload, [][]float64) {
	t.Helper()
	sp, err := compress.ParseSpec(spec)
	if err != nil {
		t.Fatalf("ParseSpec(%q): %v", spec, err)
	}
	views := make([]compress.Payload, len(vecs))
	dense := make([][]float64, len(vecs))
	for i, v := range vecs {
		c, err := sp.NewCodec(randx.Derive(seed, "codec/"+itoa(i)))
		if err != nil {
			t.Fatalf("NewCodec(%q): %v", spec, err)
		}
		enc, payload := c.AppendEncode(nil, v)
		view, err := compress.ParsePayload(enc, payload)
		if err != nil {
			t.Fatalf("ParsePayload(%q): %v", spec, err)
		}
		ref, err := compress.DecodePayload(enc, payload)
		if err != nil {
			t.Fatalf("DecodePayload(%q): %v", spec, err)
		}
		views[i] = view
		dense[i] = ref
	}
	return views, dense
}

// assertBitIdentical fails unless got and want agree float64-bit for
// float64-bit — the PayloadRule contract is exact, not approximate.
func assertBitIdentical(t *testing.T, label string, got, want []float64) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: length %d, want %d", label, len(got), len(want))
	}
	for j := range want {
		if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
			t.Fatalf("%s coord %d: fused %v (%#x) != reference %v (%#x)",
				label, j, got[j], math.Float64bits(got[j]), want[j], math.Float64bits(want[j]))
		}
	}
}

// TestPayloadAggregationBitIdentical is the differential contract of
// the tentpole: for every registered codec spec × fused rule × worker
// count × quorum size (P′ ≤ P, the degraded rounds where fewer global
// models arrive), aggregating payload views directly must be
// bit-identical to DecodePayload-then-Aggregate. Dimensions cover a
// sub-tile vector, a multi-tile vector with a partial trailing tile,
// and a vector past the parallel-dispatch work gate, so every gather
// mode (all-sparse skip, mixed rows, serial, parallel) is exercised.
// make verify runs this under the race detector as a named stage.
func TestPayloadAggregationBitIdentical(t *testing.T) {
	const pTotal = 7
	dims := []int{64, 700, minParallelWork/5 + 1}
	quorums := []int{pTotal, 5, 3}
	workers := []int{1, 4, -1}

	r := randx.New(31)
	for _, d := range dims {
		full := randomVecs(r, pTotal, d)
		for _, spec := range payloadSpecs {
			views, dense := encodeViews(t, spec, full, 77+uint64(d))
			for _, p := range quorums {
				sub, subDense := views[:p], dense[:p]
				for _, w := range workers {
					rules := []PayloadRule{
						Mean{},
						TrimmedMean{Beta: 0.2, Workers: w},
						TrimmedMean{Trim: 2, Workers: w},
						CoordinateMedian{Workers: w},
					}
					for _, rule := range rules {
						if tm, ok := rule.(TrimmedMean); ok && tm.Trim > 0 && 2*tm.Trim >= p {
							continue // infeasible trim for this quorum
						}
						want := rule.Aggregate(subDense)
						got := rule.AggregatePayloads(sub)
						label := spec + "/" + rule.Name() + "/" +
							"d=" + itoa(d) + "/p=" + itoa(p) + "/w=" + itoa(w)
						assertBitIdentical(t, label, got, want)
					}
				}
			}
		}
	}
}

func itoa(n int) string {
	if n < 0 {
		return "-" + itoa(-n)
	}
	if n < 10 {
		return string(rune('0' + n))
	}
	return itoa(n/10) + string(rune('0'+n%10))
}

// TestPayloadAggregationDispatch pins the AggregatePayloads entry
// point: fused rules take the fused path (fused == true), rules
// without a payload kernel — and any rule wrapped in NoFuse — fall
// back to densify-first, and both paths agree with the dense oracle
// bit for bit.
func TestPayloadAggregationDispatch(t *testing.T) {
	r := randx.New(33)
	vecs := randomVecs(r, 7, 64)
	views, dense := encodeViews(t, "topk:0.25", vecs, 5)

	fusedRules := []Rule{Mean{}, TrimmedMean{Beta: 0.2}, CoordinateMedian{}}
	for _, rule := range fusedRules {
		got, fused := AggregatePayloads(rule, views)
		if !fused {
			t.Fatalf("%s: expected the fused path", rule.Name())
		}
		assertBitIdentical(t, rule.Name(), got, rule.Aggregate(dense))

		wrapped, fused := AggregatePayloads(NoFuse{rule}, views)
		if fused {
			t.Fatalf("NoFuse{%s}: fused path must be hidden", rule.Name())
		}
		assertBitIdentical(t, "nofuse/"+rule.Name(), wrapped, got)
	}

	for _, rule := range []Rule{Krum{F: 2}, Bulyan{F: 1}, GeoMedian{}} {
		got, fused := AggregatePayloads(rule, views)
		if fused {
			t.Fatalf("%s has no payload kernel; expected fallback", rule.Name())
		}
		assertBitIdentical(t, rule.Name(), got, rule.Aggregate(dense))
	}
}

// sparsePayload builds a parsed view straight from an index/value
// support — the handcrafted shapes the codecs would never emit but a
// degraded network or adversary could.
func sparsePayload(t *testing.T, dim int, idx []uint32, val []float64) compress.Payload {
	t.Helper()
	s := compress.Sparse{Dim: dim, Indices: idx, Values: val}
	p, err := compress.ParsePayload(compress.EncSparse, s.AppendEncode(nil))
	if err != nil {
		t.Fatalf("ParsePayload: %v", err)
	}
	return p
}

// TestPayloadAggregationAdversarialSupports is the property tier:
// seeded random sparse payload sets with adversarial index patterns —
// empty payloads, all-dense payloads, single-coordinate spikes,
// pairwise-disjoint supports — must never panic, must stay
// bit-identical to the densify-first oracle, and must preserve the
// B-per-side trimming invariant of the partial-participation property
// test: with at most B adversarial payloads, TrimmedMean{Trim: B}
// stays inside the coordinate-wise benign envelope (implicit zeros
// included, since a sparse benign payload densifies to zeros).
func TestPayloadAggregationAdversarialSupports(t *testing.T) {
	const (
		d = 96
		b = 2
	)
	err := quick.Check(func(seed uint64) bool {
		r := randx.New(seed)
		pPrime := 2*b + 1 + r.IntN(4) // quorum P' ∈ [2B+1, 2B+4]
		byzCount := r.IntN(b + 1)

		var views []compress.Payload
		benignDense := make([][]float64, 0, pPrime)
		for i := 0; i < pPrime-byzCount; i++ {
			var p compress.Payload
			switch r.IntN(4) {
			case 0: // empty support
				p = sparsePayload(t, d, nil, nil)
			case 1: // all-dense support
				v := make([]float64, d)
				randx.Normal(r, v, 0, 1)
				idx := make([]uint32, d)
				for j := range idx {
					idx[j] = uint32(j)
				}
				p = sparsePayload(t, d, idx, v)
			case 2: // single coordinate
				p = sparsePayload(t, d, []uint32{uint32(r.IntN(d))}, []float64{r.Float64()*4 - 2})
			default: // a random strided support, disjoint across clients
				stride := pPrime
				var idx []uint32
				var val []float64
				for j := i; j < d; j += stride {
					idx = append(idx, uint32(j))
					val = append(val, r.Float64()*2-1)
				}
				p = sparsePayload(t, d, idx, val)
			}
			views = append(views, p)
			benignDense = append(benignDense, p.DenseView())
		}
		for i := 0; i < byzCount; i++ {
			// Adversarial spikes on a random partial support.
			var idx []uint32
			var val []float64
			for j := 0; j < d; j++ {
				if r.Float64() < 0.5 {
					idx = append(idx, uint32(j))
					val = append(val, 1e9*float64(1-2*((i+j)%2)))
				}
			}
			views = append(views, sparsePayload(t, d, idx, val))
		}
		perm := randx.Perm(r, len(views))
		shuffled := make([]compress.Payload, len(views))
		for i, p := range perm {
			shuffled[i] = views[p]
		}

		rule := TrimmedMean{Trim: b, Workers: 1 + r.IntN(4)}
		got := rule.AggregatePayloads(shuffled)

		dense := make([][]float64, len(shuffled))
		for i := range shuffled {
			dense[i] = shuffled[i].DenseView()
		}
		want := rule.Aggregate(dense)
		for j := range want {
			if math.Float64bits(got[j]) != math.Float64bits(want[j]) {
				t.Logf("coord %d: fused %v != reference %v", j, got[j], want[j])
				return false
			}
		}

		for j := 0; j < d; j++ {
			lo, hi := math.Inf(1), math.Inf(-1)
			for _, v := range benignDense {
				lo = math.Min(lo, v[j])
				hi = math.Max(hi, v[j])
			}
			if got[j] < lo-1e-9 || got[j] > hi+1e-9 {
				t.Logf("P'=%d byz=%d coord %d: %v outside benign [%v, %v]",
					pPrime, byzCount, j, got[j], lo, hi)
				return false
			}
		}
		return true
	}, &quick.Config{MaxCount: 150})
	if err != nil {
		t.Fatal(err)
	}
}

// TestPayloadAggregationNegativeZero pins the subtlest corner of the
// skip-the-implicit-zeros argument: explicit -0.0 entries. A sparse
// payload carrying -0.0 marks its column touched, and the fused mean
// must reproduce the dense accumulation's signed-zero behaviour
// exactly ((+0.0) + (-0.0) rounds to +0.0, so a fused accumulator can
// never drift to -0.0 where the dense one would not).
func TestPayloadAggregationNegativeZero(t *testing.T) {
	const d = 8
	negZero := math.Copysign(0, -1)
	views := []compress.Payload{
		sparsePayload(t, d, []uint32{1, 3}, []float64{negZero, 2}),
		sparsePayload(t, d, []uint32{3, 5}, []float64{-2, negZero}),
		sparsePayload(t, d, nil, nil),
	}
	dense := make([][]float64, len(views))
	for i := range views {
		dense[i] = views[i].DenseView()
	}
	for _, rule := range []PayloadRule{Mean{}, TrimmedMean{Trim: 1, Workers: 1}, CoordinateMedian{}} {
		assertBitIdentical(t, rule.Name(), rule.AggregatePayloads(views), rule.Aggregate(dense))
	}
}
