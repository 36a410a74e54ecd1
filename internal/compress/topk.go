package compress

import (
	"math"
	"math/bits"
	"slices"
)

// Top-k selection: the one order every magnitude top-k in the tree
// keeps — |v| descending, then index ascending, with NaN above +Inf —
// found in O(d) without sorting the coordinates.

// nanKey is the magnitude key every NaN maps to: one above the key of
// +Inf, so NaNs outrank every number and tie with each other.
const nanKey = 0x7FF0000000000001

// magKey orders coordinates by magnitude: for non-NaN x the IEEE bits
// with the sign cleared compare exactly as math.Abs(x) does (−0 ties
// +0, subnormals below the normals), and every NaN collapses to nanKey.
func magKey(x float64) uint64 {
	return min(math.Float64bits(x)&^(1<<63), nanKey)
}

// TopKIndices returns the indices of the k largest-magnitude coordinates
// of v in ascending index order, 0 ≤ k ≤ len(v). It keeps the one
// top-k order the topk codecs share: |v| descending, then index
// ascending, so of equal magnitudes the lower indices are kept (−0
// ties +0); NaN ranks above +Inf, and NaNs tie with each other.
// Selection is O(len(v)): the threshold is the exact k-th largest key,
// found from a sample's bracket or, when the bracket misses, by an
// introselect over every key. It allocates its result and a len(v)
// scratch; the codecs reuse theirs.
func TopKIndices(v []float64, k int) []int {
	return selectTopK(make([]int, k), make([]uint64, len(v)), v)
}

// Sampled threshold. From topkSample keys at a fixed stride, sorted,
// the sample ranks topkMargin either side of the k-th's expected rank
// bracket the threshold. One pass counts the keys above the bracket and
// compacts those inside it, and the introselect runs on those (under a
// tenth of the keys) instead of all of them. Counting makes the result
// exact whatever the sample holds: if the k-th largest key falls outside
// the bracket, the full introselect runs instead.
//
// The constants come from a sweep over normal vectors at d = 1e5 and
// k = d/100, d/10, d/2 (EXPERIMENTS.md). In a 1 024-key sample the k-th
// key's rank has a standard deviation of at most 16 (at k = d/2): a
// 48-rank margin missed on none of the vectors, where 16 and 24 missed
// on up to 44 % of them and 32 on 6 %, all at k = d/2; selection then
// takes about 0.6 of the full introselect's time. Below 4 096
// coordinates sorting the sample costs more than it saves. topkSampleMin
// is a variable only so that tests can drive both arms at every size.
const (
	topkSample = 1024
	topkMargin = 48
)

var topkSampleMin = 1 << 12

// selectTopK fills pick with the indices of the len(pick) largest
// coordinates of v under magKey, ties by index, in ascending index
// order, and returns it. keys is len(v) scratch. The threshold comes
// from sampledThreshold, or from an introselect over every key when v
// is below the size gate or the sample's bracket misses; one
// branch-free pass over v then picks the support.
func selectTopK(pick []int, keys []uint64, v []float64) []int {
	k := len(pick)
	if k == 0 {
		return pick
	}
	t, above, ok := sampledThreshold(keys, v, k)
	if !ok {
		for i, x := range v {
			keys[i] = magKey(x)
		}
		t = nthLargest(keys, k-1)
		above = countAbove(keys, t)
	}
	// Keep every key above the threshold and the lowest-indexed of the
	// keys equal to it, up to k in all.
	ties := k - above
	for i, j := 0, 0; j < k; i++ {
		key := magKey(v[i])
		tie := b2i(key == t) & b2i(ties > 0)
		ties -= tie
		pick[j] = i
		j += b2i(key > t) | tie
	}
	return pick
}

// countAbove returns how many keys exceed t.
func countAbove(keys []uint64, t uint64) (above int) {
	for _, key := range keys {
		above += b2i(key > t)
	}
	return above
}

// sampledThreshold returns the k-th largest key t of v and how many
// keys exceed it, using keys as scratch, with ok false when v is below
// the size gate or the sample's bracket misses t.
func sampledThreshold(keys []uint64, v []float64, k int) (t uint64, above int, ok bool) {
	n := len(v)
	if n < topkSampleMin {
		return 0, 0, false
	}
	m := min(topkSample, n)
	sample := keys[:m]
	for i := range sample {
		sample[i] = magKey(v[i*n/m])
	}
	slices.Sort(sample)
	// t sits near rank k·m/n of the sample counted from the top;
	// sample[m−1−r] is the key of descending rank r.
	r := k * m / n
	hi, lo := uint64(nanKey), uint64(0)
	if r-topkMargin >= 0 {
		hi = sample[m-1-(r-topkMargin)]
	}
	if r+topkMargin < m {
		lo = sample[m-1-(r+topkMargin)]
	}
	// One pass counts the keys above hi and compacts those in [lo, hi]
	// (key − lo ≤ hi − lo, unsigned) to the front of keys.
	c, span := 0, hi-lo
	for _, x := range v {
		key := magKey(x)
		above += b2i(key > hi)
		keys[c] = key
		c += b2i(key-lo <= span)
	}
	if above >= k || above+c < k {
		return 0, 0, false
	}
	if lo == hi {
		return lo, above, true
	}
	t = nthLargest(keys[:c], k-1-above)
	return t, above + countAbove(keys[:c], t), true
}

// b2i is 1 for true and 0 for false; the compiler lowers it to a flag
// set, so the passes that use it do not branch on the data.
func b2i(b bool) int {
	if b {
		return 1
	}
	return 0
}

// nthLargest returns the key at position n of keys sorted descending,
// permuting keys. It is an introselect: quickselect with a three-way
// partition around a ninther pivot, which is O(len) on random, sorted,
// reversed, organ-pipe and all-equal inputs; if 2·log₂(len) partitions
// still leave a range to search, that range is sorted instead, so no
// input costs more than O(len·log len).
func nthLargest(keys []uint64, n int) uint64 {
	lo, hi := 0, len(keys)
	for budget := 2 * bits.Len(uint(len(keys))); hi-lo > 12 && budget > 0; budget-- {
		gt, lt := partitionDesc(keys[lo:hi], pivot(keys[lo:hi]))
		switch {
		case n < lo+gt:
			hi = lo + gt
		case n >= lo+lt:
			lo += lt
		default:
			return keys[n]
		}
	}
	slices.Sort(keys[lo:hi])
	return keys[lo+hi-1-n]
}

// partitionDesc rearranges a into keys above p, keys equal to p, and
// keys below p, and returns the bounds: a[:gt] > p, a[gt:lt] == p,
// a[lt:] < p.
func partitionDesc(a []uint64, p uint64) (gt, lt int) {
	gt, lt = 0, len(a)
	for i := 0; i < lt; {
		switch x := a[i]; {
		case x > p:
			a[gt], a[i] = x, a[gt]
			gt++
			i++
		case x < p:
			lt--
			a[lt], a[i] = x, a[lt]
		default:
			i++
		}
	}
	return gt, lt
}

// pivot is Tukey's ninther: the median of three medians of three,
// spread over the range. len(a) must be at least 8.
func pivot(a []uint64) uint64 {
	n := len(a)
	s := n / 8
	return median3(
		median3(a[0], a[s], a[2*s]),
		median3(a[n/2-s], a[n/2], a[n/2+s]),
		median3(a[n-1-2*s], a[n-1-s], a[n-1]),
	)
}

func median3(a, b, c uint64) uint64 {
	if a > b {
		a, b = b, a
	}
	if c < b {
		return max(a, c)
	}
	return b
}
