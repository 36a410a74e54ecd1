// Package transport implements the binary wire protocol used by the
// distributed Fed-MS runtime (internal/node). Messages carry model
// vectors between clients, parameter servers and the coordinator over
// TCP.
//
// Frame layout, version 1 (all integers little-endian):
//
//	magic   uint16  0xFED5
//	version uint8   1
//	type    uint8   message type
//	round   uint32
//	sender  uint32
//	flag    uint32
//	textLen uint32
//	vecLen  uint32  number of float64 elements
//	text    [textLen]byte
//	vec     [vecLen]float64
//	crc     uint32  CRC-32 (IEEE) of everything after magic, before crc
//
// Version 2 frames replace the dense vector with a tagged codec payload
// (see internal/compress): after flag comes enc uint8 (the
// compress.Encoding tag), stale uint8 (the async staleness tag: how
// many rounds old the carried model is, saturating at 255; 0 on every
// synchronous frame), textLen uint32, payLen uint32 (payload BYTES),
// then text, payload, crc. Dense models always travel as v1 frames, so
// a dense-only deployment's wire bytes are byte-identical to the
// pre-codec protocol; v2 is only emitted for peers that advertised
// support via HelloCodecV2 in their Hello. The staleness tag is
// diagnostic — the authoritative staleness is the round field, which
// the scheduler compares against its own cursor — so async mode works
// over v1 frames too.
//
// The checksum protects against framing bugs and torn writes, which in
// a model-exchange protocol would otherwise corrupt training silently.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"net"
	"sync"
	"time"

	"fedms/internal/compress"
)

// Magic identifies Fed-MS frames.
const Magic uint16 = 0xFED5

// Version is the wire protocol version for dense frames.
const Version uint8 = 1

// Version2 is the wire protocol version for frames carrying a tagged
// codec payload instead of a dense vector.
const Version2 uint8 = 2

// MaxVecLen bounds the model dimension accepted from the wire (64M
// float64 = 512 MiB), protecting against corrupt length prefixes.
const MaxVecLen = 64 << 20

// MaxPayloadLen bounds v2 codec payloads (a payload never exceeds the
// dense encoding of the largest accepted vector).
const MaxPayloadLen = 8 * MaxVecLen

// MaxTextLen bounds text payloads.
const MaxTextLen = 1 << 20

// HelloCodecV2 in a Hello frame's Text advertises that the sender can
// decode version-2 codec frames. Peers that did not advertise it only
// ever receive dense v1 frames, which keeps mixed-version federations
// interoperable.
const HelloCodecV2 = "enc:v2"

// Type enumerates message types.
type Type uint8

// Message types of the Fed-MS protocol.
const (
	// TypeHello introduces a node (client or PS) to a peer; flag
	// carries the node id.
	TypeHello Type = iota + 1
	// TypeUpload carries a client's local model to one PS (flag 1) or
	// announces that the client skips this PS this round (flag 0, empty
	// vector) — the sparse-upload barrier.
	TypeUpload
	// TypeGlobalModel carries a PS's (possibly tampered) global model
	// to one client.
	TypeGlobalModel
	// TypeDone signals protocol completion.
	TypeDone
	// TypeError carries a failure description in Text.
	TypeError
)

// String implements fmt.Stringer.
func (t Type) String() string {
	switch t {
	case TypeHello:
		return "hello"
	case TypeUpload:
		return "upload"
	case TypeGlobalModel:
		return "global_model"
	case TypeDone:
		return "done"
	case TypeError:
		return "error"
	default:
		return fmt.Sprintf("Type(%d)", uint8(t))
	}
}

// Message is one protocol frame.
type Message struct {
	Type   Type
	Round  uint32
	Sender uint32
	Flag   uint32
	Text   string
	Vec    []float64

	// Stale is the async staleness tag of version-2 frames: how many
	// rounds old the carried model is at send time, saturating at 255.
	// Zero on every synchronous frame; v1 frames do not carry it.
	Stale uint8

	// Enc tags the encoding of Payload on version-2 frames.
	Enc compress.Encoding
	// Payload carries the encoded model of a version-2 frame. When nil
	// the model travels dense in Vec and the frame is encoded as v1.
	Payload []byte
}

// Protocol errors.
var (
	ErrBadMagic    = errors.New("transport: bad magic")
	ErrBadVersion  = errors.New("transport: unsupported version")
	ErrBadChecksum = errors.New("transport: checksum mismatch")
	ErrTooLarge    = errors.New("transport: frame exceeds size limits")
	// ErrBadPayload reports a v2 frame whose codec payload is invalid
	// (unknown tag or structurally malformed). Like ErrBadChecksum, the
	// full frame has been consumed when it is returned, so the stream
	// stays frame-aligned and tolerant readers can skip and continue.
	ErrBadPayload = errors.New("transport: bad codec payload")
	// ErrNotHello reports a pre-admission frame whose type is not
	// TypeHello (see Conn.PrefilterHello): an unauthenticated peer must
	// introduce itself before anything else.
	ErrNotHello = errors.New("transport: first frame is not a hello")
)

// ErrOversizeFrame reports a frame whose claimed body length exceeded
// the receiver's per-connection cap (see Conn.SetMaxBodyLen). The full
// frame has been consumed — chunk-read through the checksum, never
// materialized — so the stream stays frame-aligned and tolerant
// readers can skip it. Wraps ErrTooLarge.
var ErrOversizeFrame = fmt.Errorf("%w: body exceeds receiver cap", ErrTooLarge)

const headerLen = 2 + 1 + 1 + 4 + 4 + 4 + 4 + 4

// v2 header: magic, version, type, round, sender, flag, enc, stale,
// textLen, payLen.
const headerLenV2 = 2 + 1 + 1 + 4 + 4 + 4 + 1 + 1 + 4 + 4

// ModelPayload returns a structured no-densify view of the model the
// frame carries, the one way a frame's model is read: a
// compress.DensePayload wrapper around Vec for v1 frames, a parsed
// compress.Payload for v2 frames. Validation failures wrap
// ErrBadPayload, so tolerant readers degrade a malformed payload like
// a corrupt frame. The view feeds the fused aggregation rules
// directly; it aliases the message's buffers, so callers must not
// mutate the message while the view is live.
func (m *Message) ModelPayload() (compress.Payload, error) {
	if m.Payload == nil {
		return compress.DensePayload(m.Vec), nil
	}
	p, err := compress.ParsePayload(m.Enc, m.Payload)
	if err != nil {
		return compress.Payload{}, fmt.Errorf("%w: %v", ErrBadPayload, err)
	}
	return p, nil
}

// ModelWireBytes reports the bytes the model occupied on the wire
// (dense vectors count 8 per coordinate, v2 frames their payload size).
func (m *Message) ModelWireBytes() int {
	if m.Payload != nil {
		return len(m.Payload)
	}
	return 8 * len(m.Vec)
}

// ModelWireFloats reports the float64-equivalent model elements the
// frame carries on the wire: the dense element count for v1 frames,
// the payload size in 8-byte units (rounded up) for v2 codec frames.
// PS accounting uses it so FloatsIn/FloatsOut reflect what actually
// crossed the wire rather than the dense dimension.
func (m *Message) ModelWireFloats() int {
	if m.Payload != nil {
		return (len(m.Payload) + 7) / 8
	}
	return len(m.Vec)
}

// Encode serializes the message into a fresh byte slice (frame bytes
// including checksum).
func Encode(m *Message) []byte {
	return AppendEncode(nil, m)
}

// AppendEncode serializes the message, appends the frame bytes
// (including checksum) to dst, and returns the extended slice. It lets
// hot paths reuse one buffer across frames instead of allocating
// headerLen+8d bytes per send. Messages with a nil Payload encode as
// dense v1 frames (byte-identical to the pre-codec protocol); a non-nil
// Payload encodes as a v2 codec frame.
func AppendEncode(dst []byte, m *Message) []byte {
	if m.Payload != nil {
		return appendEncodeV2(dst, m)
	}
	textLen := len(m.Text)
	vecLen := len(m.Vec)
	start := len(dst)
	dst = growBytes(dst, headerLen+textLen+8*vecLen+4)
	buf := dst[start:]
	binary.LittleEndian.PutUint16(buf[0:], Magic)
	buf[2] = Version
	buf[3] = uint8(m.Type)
	binary.LittleEndian.PutUint32(buf[4:], m.Round)
	binary.LittleEndian.PutUint32(buf[8:], m.Sender)
	binary.LittleEndian.PutUint32(buf[12:], m.Flag)
	binary.LittleEndian.PutUint32(buf[16:], uint32(textLen))
	binary.LittleEndian.PutUint32(buf[20:], uint32(vecLen))
	copy(buf[headerLen:], m.Text)
	off := headerLen + textLen
	for _, v := range m.Vec {
		binary.LittleEndian.PutUint64(buf[off:], math.Float64bits(v))
		off += 8
	}
	crc := crc32.ChecksumIEEE(buf[2:off])
	binary.LittleEndian.PutUint32(buf[off:], crc)
	return dst
}

// appendEncodeV2 emits a version-2 frame carrying m.Payload.
func appendEncodeV2(dst []byte, m *Message) []byte {
	textLen := len(m.Text)
	payLen := len(m.Payload)
	start := len(dst)
	dst = growBytes(dst, headerLenV2+textLen+payLen+4)
	buf := dst[start:]
	binary.LittleEndian.PutUint16(buf[0:], Magic)
	buf[2] = Version2
	buf[3] = uint8(m.Type)
	binary.LittleEndian.PutUint32(buf[4:], m.Round)
	binary.LittleEndian.PutUint32(buf[8:], m.Sender)
	binary.LittleEndian.PutUint32(buf[12:], m.Flag)
	buf[16] = uint8(m.Enc)
	buf[17] = m.Stale
	binary.LittleEndian.PutUint32(buf[18:], uint32(textLen))
	binary.LittleEndian.PutUint32(buf[22:], uint32(payLen))
	copy(buf[headerLenV2:], m.Text)
	off := headerLenV2 + textLen
	copy(buf[off:], m.Payload)
	off += payLen
	crc := crc32.ChecksumIEEE(buf[2:off])
	binary.LittleEndian.PutUint32(buf[off:], crc)
	return dst
}

// growBytes extends b by n bytes, reallocating only when the capacity
// is insufficient. The extension is NOT zeroed — AppendEncode writes
// every appended byte.
func growBytes(b []byte, n int) []byte {
	l := len(b)
	if l+n <= cap(b) {
		return b[:l+n]
	}
	nb := make([]byte, l+n)
	copy(nb, b)
	return nb
}

// encodeBufs recycles frame buffers across Send calls; model frames are
// headerLen+8d bytes, far too large to re-allocate per round per link.
var encodeBufs = sync.Pool{New: func() any { return new([]byte) }}

// Decode reads one frame from r, accepting both v1 dense frames and v2
// codec frames. The body allocation is bounded only by the protocol
// maxima (MaxTextLen, MaxPayloadLen); receivers of unauthenticated
// traffic should use DecodeBounded with a small cap instead.
func Decode(r io.Reader) (*Message, error) {
	var hdr [headerLenV2]byte
	return decodeFrame(r, &hdr, 0)
}

// DecodeBounded reads one frame like Decode but additionally caps the
// body bytes (text + model + checksum) it will materialize at maxBody
// (0 = protocol maxima only). A frame claiming more is consumed in
// fixed-size chunks through the checksum — never allocated — and
// rejected with ErrOversizeFrame (or ErrBadChecksum when the claimed
// lengths were themselves forged), leaving the stream frame-aligned.
// This is the pre-authentication ingest contract: a forged length
// field costs the receiver at most maxBody bytes, not MaxPayloadLen.
func DecodeBounded(r io.Reader, maxBody int) (*Message, error) {
	var hdr [headerLenV2]byte
	return decodeFrame(r, &hdr, maxBody)
}

// decodeFrame is the shared decoder core. hdr is caller-supplied
// header scratch so connection hot paths reuse one buffer per conn
// instead of allocating per frame.
func decodeFrame(r io.Reader, hdr *[headerLenV2]byte, maxBody int) (*Message, error) {
	// The two versions have different header lengths, so read the common
	// prefix (magic, version, type) before the rest of the header.
	const prefixLen = 4
	header := hdr[:]
	if _, err := io.ReadFull(r, header[:prefixLen]); err != nil {
		return nil, err
	}
	if binary.LittleEndian.Uint16(header[0:]) != Magic {
		return nil, ErrBadMagic
	}
	switch header[2] {
	case Version:
		header = header[:headerLen]
	case Version2:
	default:
		return nil, ErrBadVersion
	}
	if _, err := io.ReadFull(r, header[prefixLen:]); err != nil {
		return nil, err
	}
	var textLen, modelBytes int
	var enc compress.Encoding
	if header[2] == Version {
		textLen = int(binary.LittleEndian.Uint32(header[16:]))
		vecLen := int(binary.LittleEndian.Uint32(header[20:]))
		if textLen > MaxTextLen || vecLen > MaxVecLen {
			return nil, ErrTooLarge
		}
		modelBytes = 8 * vecLen
	} else {
		enc = compress.Encoding(header[16])
		textLen = int(binary.LittleEndian.Uint32(header[18:]))
		modelBytes = int(binary.LittleEndian.Uint32(header[22:]))
		if textLen > MaxTextLen || modelBytes > MaxPayloadLen {
			return nil, ErrTooLarge
		}
	}
	if maxBody > 0 && textLen+modelBytes+4 > maxBody {
		return nil, discardBody(r, header, textLen+modelBytes)
	}
	body := make([]byte, textLen+modelBytes+4)
	if _, err := io.ReadFull(r, body); err != nil {
		return nil, err
	}
	payload := body[:len(body)-4]
	wantCRC := binary.LittleEndian.Uint32(body[len(body)-4:])
	crc := crc32.ChecksumIEEE(header[2:])
	crc = crc32.Update(crc, crc32.IEEETable, payload)
	if crc != wantCRC {
		return nil, ErrBadChecksum
	}
	m := &Message{
		Type:   Type(header[3]),
		Round:  binary.LittleEndian.Uint32(header[4:]),
		Sender: binary.LittleEndian.Uint32(header[8:]),
		Flag:   binary.LittleEndian.Uint32(header[12:]),
	}
	if textLen > 0 {
		m.Text = string(payload[:textLen])
	}
	if header[2] == Version2 {
		// The full frame is consumed and checksummed: payload errors from
		// here leave the stream frame-aligned for tolerant readers.
		if !compress.KnownEncoding(enc) {
			return nil, fmt.Errorf("%w: unknown encoding tag %d", ErrBadPayload, uint8(enc))
		}
		m.Enc = enc
		m.Stale = header[17]
		// make (not append) so an empty payload stays non-nil and the
		// message re-encodes as v2.
		m.Payload = make([]byte, modelBytes)
		copy(m.Payload, payload[textLen:])
		return m, nil
	}
	if modelBytes > 0 {
		m.Vec = make([]float64, modelBytes/8)
		off := textLen
		for i := range m.Vec {
			m.Vec[i] = math.Float64frombits(binary.LittleEndian.Uint64(payload[off:]))
			off += 8
		}
	}
	return m, nil
}

// discardBody consumes an over-cap frame body (payloadLen bytes plus
// the 4-byte checksum) in fixed chunks, verifying the CRC as it goes,
// so the claim is rejected without ever being materialized and the
// stream stays frame-aligned for the next Recv. The chunk lives on the
// caller's stack frame; the largest allocation a forged length can
// force is the chunk size, independent of the claim.
func discardBody(r io.Reader, header []byte, payloadLen int) error {
	crc := crc32.ChecksumIEEE(header[2:])
	var chunk [1024]byte
	for remain := payloadLen; remain > 0; {
		n := remain
		if n > len(chunk) {
			n = len(chunk)
		}
		if _, err := io.ReadFull(r, chunk[:n]); err != nil {
			return err
		}
		crc = crc32.Update(crc, crc32.IEEETable, chunk[:n])
		remain -= n
	}
	if _, err := io.ReadFull(r, chunk[:4]); err != nil {
		return err
	}
	if crc != binary.LittleEndian.Uint32(chunk[:4]) {
		// The lengths themselves were forged: the frame was junk, not an
		// honest peer exceeding its budget.
		return ErrBadChecksum
	}
	return ErrOversizeFrame
}

// Conn wraps a net.Conn with buffered, mutex-protected, deadline-aware
// frame I/O. Send and Recv are each safe for concurrent use.
type Conn struct {
	conn    net.Conn
	br      *bufio.Reader
	key     []byte            // optional shared secret for per-frame HMAC (see SetKey)
	metrics *Metrics          // optional wire counters (see SetMetrics)
	maxBody int               // per-frame body cap for Recv (see SetMaxBodyLen)
	hdr     [headerLenV2]byte // per-conn header scratch (one alloc/frame saved)

	sendMu sync.Mutex
	recvMu sync.Mutex

	// Timeout applies per frame to both reads and writes (0 = none).
	Timeout time.Duration
}

// NewConn wraps a net.Conn.
func NewConn(c net.Conn) *Conn {
	return &Conn{conn: c, br: bufio.NewReaderSize(c, 64<<10)}
}

// Dial connects to addr and wraps the connection.
func Dial(addr string, timeout time.Duration) (*Conn, error) {
	c, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, fmt.Errorf("transport: dial %s: %w", addr, err)
	}
	conn := NewConn(c)
	conn.Timeout = timeout
	return conn, nil
}

// Send writes one frame (plus its HMAC tag when a key is configured).
func (c *Conn) Send(m *Message) error {
	c.sendMu.Lock()
	defer c.sendMu.Unlock()
	if c.Timeout > 0 {
		if err := c.conn.SetWriteDeadline(time.Now().Add(c.Timeout)); err != nil {
			return err
		}
	}
	bufp := encodeBufs.Get().(*[]byte)
	frame := AppendEncode((*bufp)[:0], m)
	if c.key != nil {
		frame = append(frame, seal(c.key, frame)...)
	}
	err := c.sendBytes(frame)
	c.metrics.onSend(len(frame), err)
	*bufp = frame
	encodeBufs.Put(bufp)
	return err
}

// Recv reads one frame (verifying its HMAC tag when a key is
// configured).
func (c *Conn) Recv() (*Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if c.Timeout > 0 {
		if err := c.conn.SetReadDeadline(time.Now().Add(c.Timeout)); err != nil {
			return nil, err
		}
	}
	var m *Message
	var err error
	if c.key != nil {
		m, err = c.recvAuthenticated()
	} else {
		m, err = decodeFrame(c.br, &c.hdr, c.maxBody)
	}
	if c.metrics != nil {
		n := 0
		if err == nil {
			n = m.wireLen()
			if c.key != nil {
				n += MACSize
			}
		}
		c.metrics.onRecv(n, err)
	}
	return m, err
}

// SetMaxBodyLen caps the body bytes (text + model + checksum) a single
// Recv on this connection will materialize. Frames claiming more are
// consumed to rejection without being allocated (see DecodeBounded).
// Zero restores the protocol-wide maxima — the budget of an admitted,
// authenticated peer. Servers set a small cap (HelloMaxBodyLen) on
// not-yet-admitted connections so a forged length field costs nothing.
// Must not be called concurrently with Recv.
func (c *Conn) SetMaxBodyLen(n int) { c.maxBody = n }

// SetRecvDeadline overrides the read deadline of an in-flight (or the
// next) Recv. net.Conn guarantees a deadline update interrupts a
// blocked Read, so a peer waiting on a frame that will never arrive can
// be cut short without closing the connection. The override lasts until
// the next Recv call re-arms the per-frame Timeout.
func (c *Conn) SetRecvDeadline(t time.Time) error {
	c.metrics.onDeadlineTrim()
	return c.conn.SetReadDeadline(t)
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.conn.Close() }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }
