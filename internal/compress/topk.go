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
// Selection is O(len(v)). It allocates its result and a len(v)
// scratch; the codecs reuse theirs.
func TopKIndices(v []float64, k int) []int {
	return selectTopK(make([]int, k), make([]uint64, len(v)), v)
}

// selectTopK fills pick with the indices of the len(pick) largest
// coordinates of v under magKey, ties by index, in ascending index
// order, and returns it. keys is len(v) scratch.
func selectTopK(pick []int, keys []uint64, v []float64) []int {
	k := len(pick)
	if k == 0 {
		return pick
	}
	for i, x := range v {
		keys[i] = magKey(x)
	}
	t := nthLargest(keys, k-1)
	// Keep every key above the threshold and the lowest-indexed of the
	// keys equal to it, up to k in all.
	ties := k
	for _, key := range keys {
		if key > t {
			ties--
		}
	}
	for i, j := 0, 0; j < k; i++ {
		key := magKey(v[i])
		if key < t || key == t && ties == 0 {
			continue
		}
		if key == t {
			ties--
		}
		pick[j] = i
		j++
	}
	return pick
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
