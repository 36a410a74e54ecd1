package transport

import (
	"encoding/binary"
	"math"
	"sync"
	"unsafe"
)

// A dense model travels as its float64 bits, little-endian, 8 bytes per
// element. On a little-endian host that is exactly the vector's memory,
// so both ends move it as one block of bytes through floatBytes; the
// per-element loops below run only on big-endian hosts.

// nativeLE reports whether this host stores a float64's bytes in wire
// order.
var nativeLE = binary.NativeEndian.Uint16([]byte{1, 0}) == 1

// floatBytes views v's memory as its 8·len(v) bytes, without copying.
func floatBytes(v []float64) []byte {
	return unsafe.Slice((*byte)(unsafe.Pointer(unsafe.SliceData(v))), 8*len(v))
}

// putFloatsLE writes v into dst in wire order; dst holds at least
// 8·len(v) bytes.
func putFloatsLE(dst []byte, v []float64) {
	if nativeLE {
		copy(dst, floatBytes(v))
		return
	}
	putFloatsPortable(dst, v)
}

// floatsFromLE turns v, whose memory holds wire-order bytes (a frame
// read through floatBytes), into native float64s in place.
func floatsFromLE(v []float64) {
	if !nativeLE {
		floatsFromLEPortable(v)
	}
}

// putFloatsPortable is putFloatsLE for any byte order.
func putFloatsPortable(dst []byte, v []float64) {
	for i, x := range v {
		binary.LittleEndian.PutUint64(dst[8*i:], math.Float64bits(x))
	}
}

// floatsFromLEPortable is floatsFromLE for any byte order: each
// element's 8 bytes are read before the element is written, so the
// conversion runs in place.
func floatsFromLEPortable(v []float64) {
	b := floatBytes(v)
	for i := range v {
		v[i] = math.Float64frombits(binary.LittleEndian.Uint64(b[8*i:]))
	}
}

// vecPool is a Conn's small free list of dense model buffers: Recv
// decodes a v1 frame's model into one, and Conn.Release hands it back
// once nothing reads the model any more. The list is bounded, so an
// idle connection pins at most pooledVecs models; a buffer that is
// never released is garbage-collected like any other.
type vecPool struct {
	mu   sync.Mutex
	free [][]float64
}

// pooledVecs bounds a Conn's free list. One is the steady state of
// both roles — a client releases each PS's model before the next
// round's arrives, a PS releases a round's uploads before reading the
// next — and the second covers a frame held back by Conn.Unread.
const pooledVecs = 2

// get returns a vector of length n: a released one with room, else a
// fresh allocation. Its contents are stale; the decoder overwrites
// every element. A nil pool always allocates.
func (p *vecPool) get(n int) []float64 {
	if p != nil {
		p.mu.Lock()
		for len(p.free) > 0 {
			v := p.free[len(p.free)-1]
			p.free = p.free[:len(p.free)-1]
			if cap(v) >= n {
				p.mu.Unlock()
				return v[:n]
			}
		}
		p.mu.Unlock()
	}
	return make([]float64, n)
}

// put returns v to the free list, dropping it when the list is full.
// A nil pool drops everything.
func (p *vecPool) put(v []float64) {
	if p == nil || cap(v) == 0 {
		return
	}
	p.mu.Lock()
	if len(p.free) < pooledVecs {
		p.free = append(p.free, v[:0])
	}
	p.mu.Unlock()
}
