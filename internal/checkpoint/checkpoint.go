// Package checkpoint persists Fed-MS training state — a flat model
// vector plus round metadata — in a compact, checksummed binary format,
// so long federated runs can be suspended and resumed and trained
// models can be shipped between the simulator, the distributed runtime
// and downstream consumers.
//
// Format (little-endian):
//
//	magic   [4]byte "FMCK"
//	version uint16  1
//	round   uint32
//	seed    uint64
//	nmeta   uint32
//	{ klen uint32, key, vlen uint32, value } × nmeta
//	dim     uint64
//	params  [dim]float64
//	crc     uint32   CRC-32 (IEEE) of everything after magic
package checkpoint

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"sort"
)

var magic = [4]byte{'F', 'M', 'C', 'K'}

// Version is the current checkpoint format version.
const Version uint16 = 1

// Limits protecting against corrupt length prefixes.
const (
	maxMeta    = 1 << 16
	maxStrLen  = 1 << 20
	maxDim     = 1 << 30
	maxMetaLen = 1 << 16
)

// Checkpoint errors.
var (
	ErrBadMagic    = errors.New("checkpoint: bad magic")
	ErrBadVersion  = errors.New("checkpoint: unsupported version")
	ErrBadChecksum = errors.New("checkpoint: checksum mismatch")
	ErrCorrupt     = errors.New("checkpoint: corrupt field length")
)

// State is one saved training state.
type State struct {
	// Round is the number of completed training rounds.
	Round int
	// Seed is the experiment seed the run was started with.
	Seed uint64
	// Meta carries free-form annotations (model kind, dataset, ...).
	Meta map[string]string
	// Params is the flat model parameter vector.
	Params []float64
}

// crcWriter accumulates a CRC while writing through.
type crcWriter struct {
	w   io.Writer
	crc uint32
}

func (c *crcWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// Save writes the state to w.
func Save(w io.Writer, st *State) error {
	if len(st.Meta) > maxMeta {
		return fmt.Errorf("checkpoint: too many metadata entries (%d)", len(st.Meta))
	}
	bw := bufio.NewWriter(w)
	if _, err := bw.Write(magic[:]); err != nil {
		return err
	}
	cw := &crcWriter{w: bw}
	var scratch [8]byte

	writeU16 := func(v uint16) error {
		binary.LittleEndian.PutUint16(scratch[:2], v)
		_, err := cw.Write(scratch[:2])
		return err
	}
	writeU32 := func(v uint32) error {
		binary.LittleEndian.PutUint32(scratch[:4], v)
		_, err := cw.Write(scratch[:4])
		return err
	}
	writeU64 := func(v uint64) error {
		binary.LittleEndian.PutUint64(scratch[:8], v)
		_, err := cw.Write(scratch[:8])
		return err
	}
	writeStr := func(s string) error {
		if len(s) > maxStrLen {
			return fmt.Errorf("checkpoint: string too long (%d bytes)", len(s))
		}
		if err := writeU32(uint32(len(s))); err != nil {
			return err
		}
		_, err := io.WriteString(cw, s)
		return err
	}

	if err := writeU16(Version); err != nil {
		return err
	}
	if err := writeU32(uint32(st.Round)); err != nil {
		return err
	}
	if err := writeU64(st.Seed); err != nil {
		return err
	}
	// Deterministic metadata order.
	keys := make([]string, 0, len(st.Meta))
	for k := range st.Meta {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	if err := writeU32(uint32(len(keys))); err != nil {
		return err
	}
	for _, k := range keys {
		if err := writeStr(k); err != nil {
			return err
		}
		if err := writeStr(st.Meta[k]); err != nil {
			return err
		}
	}
	if err := writeU64(uint64(len(st.Params))); err != nil {
		return err
	}
	for _, v := range st.Params {
		if err := writeU64(math.Float64bits(v)); err != nil {
			return err
		}
	}
	// Trailing CRC (of everything after magic).
	binary.LittleEndian.PutUint32(scratch[:4], cw.crc)
	if _, err := bw.Write(scratch[:4]); err != nil {
		return err
	}
	return bw.Flush()
}

// crcReader accumulates a CRC while reading through.
type crcReader struct {
	r   io.Reader
	crc uint32
}

func (c *crcReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.crc = crc32.Update(c.crc, crc32.IEEETable, p[:n])
	return n, err
}

// Load reads one state from r, verifying the checksum.
func Load(r io.Reader) (*State, error) {
	br := bufio.NewReader(r)
	var head [4]byte
	if _, err := io.ReadFull(br, head[:]); err != nil {
		return nil, err
	}
	if head != magic {
		return nil, ErrBadMagic
	}
	cr := &crcReader{r: br}
	var scratch [8]byte

	readU16 := func() (uint16, error) {
		if _, err := io.ReadFull(cr, scratch[:2]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint16(scratch[:2]), nil
	}
	readU32 := func() (uint32, error) {
		if _, err := io.ReadFull(cr, scratch[:4]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint32(scratch[:4]), nil
	}
	readU64 := func() (uint64, error) {
		if _, err := io.ReadFull(cr, scratch[:8]); err != nil {
			return 0, err
		}
		return binary.LittleEndian.Uint64(scratch[:8]), nil
	}
	readStr := func() (string, error) {
		n, err := readU32()
		if err != nil {
			return "", err
		}
		if n > maxStrLen {
			return "", ErrCorrupt
		}
		buf := make([]byte, n)
		if _, err := io.ReadFull(cr, buf); err != nil {
			return "", err
		}
		return string(buf), nil
	}

	version, err := readU16()
	if err != nil {
		return nil, err
	}
	if version != Version {
		return nil, ErrBadVersion
	}
	round, err := readU32()
	if err != nil {
		return nil, err
	}
	seed, err := readU64()
	if err != nil {
		return nil, err
	}
	nmeta, err := readU32()
	if err != nil {
		return nil, err
	}
	if nmeta > maxMetaLen {
		return nil, ErrCorrupt
	}
	meta := make(map[string]string, nmeta)
	for i := uint32(0); i < nmeta; i++ {
		k, err := readStr()
		if err != nil {
			return nil, err
		}
		v, err := readStr()
		if err != nil {
			return nil, err
		}
		meta[k] = v
	}
	dim, err := readU64()
	if err != nil {
		return nil, err
	}
	if dim > maxDim {
		return nil, ErrCorrupt
	}
	// params grows as values arrive, so a corrupt dim claims no more
	// memory than the bytes actually present back it.
	params := make([]float64, 0, min(dim, 1<<16))
	for i := uint64(0); i < dim; i++ {
		bits, err := readU64()
		if err != nil {
			return nil, err
		}
		params = append(params, math.Float64frombits(bits))
	}
	gotCRC := cr.crc
	if _, err := io.ReadFull(br, scratch[:4]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint32(scratch[:4]) != gotCRC {
		return nil, ErrBadChecksum
	}
	return &State{Round: int(round), Seed: seed, Meta: meta, Params: params}, nil
}

// SaveFile writes the state atomically (via a temp file + rename) to
// path.
func SaveFile(path string, st *State) error {
	tmp, err := os.CreateTemp(dirOf(path), ".ckpt-*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name())
	if err := Save(tmp, st); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}

// LoadFile reads a state from path.
func LoadFile(path string) (*State, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Load(f)
}

func dirOf(path string) string {
	for i := len(path) - 1; i >= 0; i-- {
		if path[i] == '/' {
			return path[:i]
		}
	}
	return "."
}
