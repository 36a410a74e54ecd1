// Package spill provides a bounded in-memory FIFO of model payloads
// with transparent disk overflow, the async round buffer behind the
// bounded-staleness scheduler (DESIGN.md §7).
//
// Records queue in memory until MemLimit payload bytes are held; past
// that, new records append to a CRC-framed segment file and keep
// arriving there until the disk backlog fully drains, so the pop order
// stays strictly FIFO (every in-memory record is older than every
// on-disk record). The segment survives crashes: Open scans frames
// from the start, truncates a torn tail after a partial write, and
// replays the intact prefix. Flush pushes the in-memory residue to
// disk and returns a manifest for checkpointing, so a restarted PS can
// resume mid-window instead of dropping the late uploads.
package spill

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// Record is one parked upload: an encoded model payload plus the
// routing and staleness bookkeeping the scheduler needs to replay it.
type Record struct {
	Client int    // uploading client id
	Server int    // destination server id (a PS records its own)
	Origin int    // round the payload was trained for
	Due    int    // earliest round the record may be delivered in
	Enc    byte   // compress.Encoding wire tag
	Data   []byte // encoded payload bytes (owned by the buffer)
}

// frameHeadLen is the fixed per-record frame prefix: five u32 fields
// (data length, client, server, origin, due) plus the encoding byte.
// The frame is head + data + trailing CRC-32 (IEEE) over head + data.
const frameHeadLen = 4*5 + 1

const frameTailLen = 4 // CRC-32

// Config bounds the buffer and places its overflow segment.
type Config struct {
	// MemLimit is the number of payload bytes held in memory before
	// records overflow to disk. Zero means DefaultMemLimit; negative
	// forces every record straight to disk (useful in tests).
	MemLimit int
	// Dir is the directory for the overflow segment. Empty means
	// os.TempDir().
	Dir string
	// Path pins the segment to an explicit file (checkpoint restore
	// reopens it here). Empty means an anonymous temp file in Dir.
	Path string
}

// DefaultMemLimit is the in-memory payload-byte bound when Config
// leaves MemLimit zero.
const DefaultMemLimit = 1 << 20

// Buffer is a FIFO of Records with transparent disk overflow. All
// methods are safe for concurrent use.
type Buffer struct {
	mu  sync.Mutex
	cfg Config

	mem      []Record // FIFO: mem[head:] are queued, oldest first
	head     int
	memBytes int64

	f         *os.File
	path      string
	readOff   int64 // next frame to pop
	writeOff  int64 // append position
	diskCount int
	peakDisk  int64
}

// New returns an empty buffer. The segment file is created lazily on
// first overflow.
func New(cfg Config) *Buffer {
	if cfg.MemLimit == 0 {
		cfg.MemLimit = DefaultMemLimit
	}
	return &Buffer{cfg: cfg}
}

// Open reopens a flushed segment written by a previous Buffer (via
// Flush or overflow) and returns a buffer whose queue starts with the
// segment's intact records. A torn final frame — a crash mid-write —
// is detected by length/CRC and truncated away; the records before it
// replay normally. The returned count is the number of recovered
// records.
func Open(path string, cfg Config) (*Buffer, int, error) {
	if cfg.MemLimit == 0 {
		cfg.MemLimit = DefaultMemLimit
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, 0, err
	}
	valid, count, err := scanSegment(f)
	if err != nil {
		f.Close()
		return nil, 0, err
	}
	if err := f.Truncate(valid); err != nil {
		f.Close()
		return nil, 0, err
	}
	b := &Buffer{
		cfg:       cfg,
		f:         f,
		path:      path,
		readOff:   0,
		writeOff:  valid,
		diskCount: count,
		peakDisk:  valid,
	}
	return b, count, nil
}

// scanSegment walks frames from the start of f and returns the byte
// length of the intact prefix plus the number of whole records in it.
func scanSegment(f *os.File) (valid int64, count int, err error) {
	info, err := f.Stat()
	if err != nil {
		return 0, 0, err
	}
	size := info.Size()
	var head [frameHeadLen]byte
	off := int64(0)
	for {
		if size-off < frameHeadLen+frameTailLen {
			return off, count, nil
		}
		if _, err := f.ReadAt(head[:], off); err != nil {
			return off, count, nil
		}
		n := int64(binary.LittleEndian.Uint32(head[0:]))
		total := frameHeadLen + n + frameTailLen
		if off+total > size {
			return off, count, nil // torn tail
		}
		frame := make([]byte, frameHeadLen+n)
		if _, err := f.ReadAt(frame, off); err != nil {
			return off, count, nil
		}
		var tail [frameTailLen]byte
		if _, err := f.ReadAt(tail[:], off+frameHeadLen+n); err != nil {
			return off, count, nil
		}
		if crc32.ChecksumIEEE(frame) != binary.LittleEndian.Uint32(tail[:]) {
			return off, count, nil // corrupt frame: stop at the last good one
		}
		off += total
		count++
	}
}

// Add appends rec to the queue, copying rec.Data. Records go to disk
// when the memory bound is exceeded or a disk backlog already exists
// (keeping the overall order FIFO).
func (b *Buffer) Add(rec Record) error {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.diskCount > 0 || b.memBytes+int64(len(rec.Data)) > int64(b.cfg.MemLimit) {
		return b.appendDisk(rec)
	}
	rec.Data = append([]byte(nil), rec.Data...)
	b.mem = append(b.mem, rec)
	b.memBytes += int64(len(rec.Data))
	return nil
}

// Pop removes and returns the oldest record. ok is false when the
// buffer is empty.
func (b *Buffer) Pop() (rec Record, ok bool, err error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.head < len(b.mem) {
		rec = b.mem[b.head]
		b.mem[b.head] = Record{}
		b.head++
		b.memBytes -= int64(len(rec.Data))
		if b.head == len(b.mem) {
			b.mem = b.mem[:0]
			b.head = 0
		}
		return rec, true, nil
	}
	if b.diskCount == 0 {
		return Record{}, false, nil
	}
	rec, n, err := b.readFrame(b.readOff)
	if err != nil {
		return Record{}, false, err
	}
	b.readOff += n
	b.diskCount--
	if b.diskCount == 0 {
		// Backlog drained: reclaim the segment space.
		if err := b.f.Truncate(0); err != nil {
			return Record{}, false, err
		}
		b.readOff, b.writeOff = 0, 0
	}
	return rec, true, nil
}

// Len returns the number of queued records.
func (b *Buffer) Len() int {
	b.mu.Lock()
	defer b.mu.Unlock()
	return len(b.mem) - b.head + b.diskCount
}

// MemBytes returns the payload bytes currently held in memory.
func (b *Buffer) MemBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.memBytes
}

// DiskBytes returns the live byte span of the overflow segment.
func (b *Buffer) DiskBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.writeOff - b.readOff
}

// PeakDiskBytes returns the high-water segment size, for metrics.
func (b *Buffer) PeakDiskBytes() int64 {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.peakDisk
}

// Path returns the segment path, or "" if nothing has spilled yet.
func (b *Buffer) Path() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.path
}

// Manifest describes a flushed segment for checkpointing.
type Manifest struct {
	Path    string // segment file, "" when the buffer is empty
	Records int    // whole records in the segment
	Bytes   int64  // segment byte length
}

// Flush rewrites the segment as the full FIFO — the in-memory records
// (which are older than any disk backlog) followed by the unread disk
// span — syncs it, and returns the manifest. After Flush the buffer
// keeps serving records, now all from disk, so checkpointing is
// non-destructive.
func (b *Buffer) Flush() (Manifest, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	memCount := len(b.mem) - b.head
	if memCount == 0 && b.f == nil {
		return Manifest{}, nil
	}
	if b.f == nil {
		if err := b.openSegmentLocked(); err != nil {
			return Manifest{}, err
		}
	}
	// Snapshot the unread disk backlog, then rebuild the segment with
	// the older in-memory records in front of it.
	span := b.writeOff - b.readOff
	var tail []byte
	if span > 0 {
		tail = make([]byte, span)
		if _, err := b.f.ReadAt(tail, b.readOff); err != nil {
			return Manifest{}, err
		}
	}
	diskCount := b.diskCount
	b.readOff, b.writeOff, b.diskCount = 0, 0, 0
	for b.head < len(b.mem) {
		rec := b.mem[b.head]
		if err := b.appendDisk(rec); err != nil {
			return Manifest{}, err
		}
		b.mem[b.head] = Record{}
		b.head++
		b.memBytes -= int64(len(rec.Data))
	}
	b.mem = b.mem[:0]
	b.head = 0
	if span > 0 {
		if _, err := b.f.WriteAt(tail, b.writeOff); err != nil {
			return Manifest{}, err
		}
		b.writeOff += span
	}
	b.diskCount += diskCount
	if err := b.f.Truncate(b.writeOff); err != nil {
		return Manifest{}, err
	}
	if b.writeOff > b.peakDisk {
		b.peakDisk = b.writeOff
	}
	if err := b.f.Sync(); err != nil {
		return Manifest{}, err
	}
	return Manifest{Path: b.path, Records: b.diskCount, Bytes: b.writeOff}, nil
}

// Close releases the segment file, removing it. Safe to call on an
// empty or never-spilled buffer.
func (b *Buffer) Close() error {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.closeLocked()
}

// Abort discards all queued records and removes the segment file.
// Errors are ignored: Abort runs on already-failing paths.
func (b *Buffer) Abort() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.mem = nil
	b.head = 0
	b.memBytes = 0
	b.closeLocked()
}

func (b *Buffer) closeLocked() error {
	if b.f == nil {
		return nil
	}
	err := b.f.Close()
	if rmErr := os.Remove(b.path); err == nil {
		err = rmErr
	}
	b.f = nil
	b.diskCount = 0
	b.readOff, b.writeOff = 0, 0
	return err
}

// appendDisk writes rec as one CRC frame at writeOff. Caller holds mu.
func (b *Buffer) appendDisk(rec Record) error {
	if b.f == nil {
		if err := b.openSegmentLocked(); err != nil {
			return err
		}
	}
	frame := make([]byte, frameHeadLen+len(rec.Data)+frameTailLen)
	binary.LittleEndian.PutUint32(frame[0:], uint32(len(rec.Data)))
	binary.LittleEndian.PutUint32(frame[4:], uint32(int32(rec.Client)))
	binary.LittleEndian.PutUint32(frame[8:], uint32(int32(rec.Server)))
	binary.LittleEndian.PutUint32(frame[12:], uint32(int32(rec.Origin)))
	binary.LittleEndian.PutUint32(frame[16:], uint32(int32(rec.Due)))
	frame[20] = rec.Enc
	copy(frame[frameHeadLen:], rec.Data)
	crc := crc32.ChecksumIEEE(frame[:frameHeadLen+len(rec.Data)])
	binary.LittleEndian.PutUint32(frame[frameHeadLen+len(rec.Data):], crc)
	if _, err := b.f.WriteAt(frame, b.writeOff); err != nil {
		return err
	}
	b.writeOff += int64(len(frame))
	b.diskCount++
	if b.writeOff > b.peakDisk {
		b.peakDisk = b.writeOff
	}
	return nil
}

func (b *Buffer) openSegmentLocked() error {
	if b.cfg.Path != "" {
		f, err := os.OpenFile(b.cfg.Path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
		if err != nil {
			return err
		}
		b.f, b.path = f, b.cfg.Path
		return nil
	}
	dir := b.cfg.Dir
	if dir == "" {
		dir = os.TempDir()
	}
	f, err := os.CreateTemp(dir, "fedms-spill-*.seg")
	if err != nil {
		return err
	}
	b.f, b.path = f, f.Name()
	return nil
}

// readFrame decodes the frame at off and returns it with its byte
// length. Caller holds mu.
func (b *Buffer) readFrame(off int64) (Record, int64, error) {
	var head [frameHeadLen]byte
	if _, err := b.f.ReadAt(head[:], off); err != nil {
		return Record{}, 0, fmt.Errorf("spill: frame head at %d: %w", off, err)
	}
	n := int(binary.LittleEndian.Uint32(head[0:]))
	frame := make([]byte, frameHeadLen+n+frameTailLen)
	if _, err := b.f.ReadAt(frame, off); err != nil {
		return Record{}, 0, fmt.Errorf("spill: frame at %d: %w", off, err)
	}
	crc := binary.LittleEndian.Uint32(frame[frameHeadLen+n:])
	if crc32.ChecksumIEEE(frame[:frameHeadLen+n]) != crc {
		return Record{}, 0, fmt.Errorf("spill: %w at %d", ErrCorrupt, off)
	}
	rec := Record{
		Client: int(int32(binary.LittleEndian.Uint32(frame[4:]))),
		Server: int(int32(binary.LittleEndian.Uint32(frame[8:]))),
		Origin: int(int32(binary.LittleEndian.Uint32(frame[12:]))),
		Due:    int(int32(binary.LittleEndian.Uint32(frame[16:]))),
		Enc:    frame[20],
		Data:   append([]byte(nil), frame[frameHeadLen:frameHeadLen+n]...),
	}
	return rec, int64(len(frame)), nil
}

// ErrCorrupt reports a CRC mismatch on a live (non-tail) frame.
var ErrCorrupt = errors.New("corrupt spill frame")
