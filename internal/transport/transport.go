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
// a dense-only deployment's model frames are byte-identical to the
// pre-codec protocol. v2 is only emitted for peers that advertised
// support via HelloCodecV2 in their Hello: every internal/node client
// advertises it, and a PS still gates its encoded downlink on the
// advertisement, so a peer that omits it gets v1 frames. The staleness
// tag is diagnostic — the authoritative staleness is the round field,
// which the scheduler compares against its own cursor — so async mode
// works over v1 frames too.
//
// The checksum protects against framing bugs and torn writes, which in
// a model-exchange protocol would otherwise corrupt training silently.
package transport

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash"
	"hash/crc32"
	"io"
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

// CarriesModel reports whether the frame carries a model: a global
// model always does, an upload only with flag 1 (flag 0 is the sparse
// barrier's empty skip frame).
func (m *Message) CarriesModel() bool {
	return m.Type == TypeGlobalModel || (m.Type == TypeUpload && m.Flag == 1)
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
	putFloatsLE(buf[off:], m.Vec)
	off += 8 * vecLen
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
	return decodeFrame(r, new(frameScratch), 0, nil, nil)
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
	return decodeFrame(r, new(frameScratch), maxBody, nil, nil)
}

// frameScratch holds a frame's header and, after it, its trailing
// checksum, so connection hot paths reuse one buffer per conn instead
// of allocating per frame.
type frameScratch [headerLenV2 + 4]byte

// decodeFrame is the one decoder behind Decode, DecodeBounded and
// Conn.Recv. A v1 model is read straight into its []float64 — through
// the vector's byte view, so there is no intermediate body buffer —
// and checksummed over those same bytes. The vector comes from vecs
// (nil: a fresh allocation) and goes back to it when the frame is
// rejected. When mac is non-nil every frame byte read is also written
// to it (an over-cap body is discarded unhashed: it is rejected
// anyway), so a keyed reader can verify the trailing tag without
// keeping a copy of the frame.
func decodeFrame(r io.Reader, s *frameScratch, maxBody int, vecs *vecPool, mac hash.Hash) (*Message, error) {
	in := frameReader{r: r, mac: mac}
	// The two versions have different header lengths, so read the common
	// prefix (magic, version, type) before the rest of the header.
	const prefixLen = 4
	if err := in.read(s[:prefixLen]); err != nil {
		return nil, err
	}
	full, err := frameHeaderLen(s[:prefixLen])
	if err != nil {
		return nil, err
	}
	header := s[:full]
	if err := in.read(header[prefixLen:]); err != nil {
		return nil, err
	}
	textLen, modelBytes, oversize, err := bodyLens(header, maxBody)
	if err != nil {
		return nil, err
	}
	if oversize {
		return nil, discardBody(r, header, textLen+modelBytes)
	}
	m := &Message{
		Type:   Type(header[3]),
		Round:  binary.LittleEndian.Uint32(header[4:]),
		Sender: binary.LittleEndian.Uint32(header[8:]),
		Flag:   binary.LittleEndian.Uint32(header[12:]),
	}
	v2 := header[2] == Version2
	if v2 {
		m.Enc = compress.Encoding(header[16])
		m.Stale = header[17]
	}
	crc := crc32.ChecksumIEEE(header[2:])

	// The body: text, model, checksum.
	var text []byte
	if textLen > 0 {
		text = make([]byte, textLen)
		if err := in.read(text); err != nil {
			return nil, err
		}
		crc = crc32.Update(crc, crc32.IEEETable, text)
	}
	var model []byte
	switch {
	case v2:
		// make (not nil) so an empty payload stays non-nil and the
		// message re-encodes as v2. Never pooled: a spill record may
		// alias it.
		m.Payload = make([]byte, modelBytes)
		model = m.Payload
	case modelBytes > 0:
		m.Vec = vecs.get(modelBytes / 8)
		model = floatBytes(m.Vec)
	}
	sum := s[full : full+4]
	err = in.read(model)
	if err == nil {
		crc = crc32.Update(crc, crc32.IEEETable, model)
		err = in.read(sum)
	}
	if err == nil && crc != binary.LittleEndian.Uint32(sum) {
		err = ErrBadChecksum
	}
	if err == nil && v2 && !compress.KnownEncoding(m.Enc) {
		// The full frame is consumed and checksummed: payload errors from
		// here leave the stream frame-aligned for tolerant readers.
		err = fmt.Errorf("%w: unknown encoding tag %d", ErrBadPayload, uint8(m.Enc))
	}
	if err != nil {
		vecs.put(m.Vec)
		return nil, err
	}
	floatsFromLE(m.Vec)
	if textLen > 0 {
		m.Text = string(text)
	}
	return m, nil
}

// frameReader reads one frame's bytes, feeding each to mac when set.
// io.EOF means the stream ended cleanly between frames; once a frame
// has begun, running out of bytes is io.ErrUnexpectedEOF.
type frameReader struct {
	r       io.Reader
	mac     hash.Hash
	started bool
}

func (f *frameReader) read(p []byte) error {
	if len(p) == 0 {
		return nil
	}
	if _, err := io.ReadFull(f.r, p); err != nil {
		if err == io.EOF && f.started {
			err = io.ErrUnexpectedEOF
		}
		return err
	}
	f.started = true
	if f.mac != nil {
		f.mac.Write(p)
	}
	return nil
}

// frameHeaderLen checks a frame's 4-byte prefix — magic and version —
// and returns the length of its full header. Decode and HelloPrefilter
// share it, so both read the wire the same way.
func frameHeaderLen(prefix []byte) (int, error) {
	if binary.LittleEndian.Uint16(prefix) != Magic {
		return 0, ErrBadMagic
	}
	switch prefix[2] {
	case Version:
		return headerLen, nil
	case Version2:
		return headerLenV2, nil
	}
	return 0, ErrBadVersion
}

// bodyLens reads the text and model byte lengths from a full v1 or v2
// header (v1 counts the model in float64 elements, v2 in payload
// bytes) and checks them against the protocol maxima (ErrTooLarge).
// oversize reports a body — text, model and checksum — over maxBody
// (0 = no cap).
func bodyLens(header []byte, maxBody int) (textLen, modelBytes int, oversize bool, err error) {
	if header[2] == Version {
		textLen = int(binary.LittleEndian.Uint32(header[16:]))
		vecLen := int(binary.LittleEndian.Uint32(header[20:]))
		if textLen > MaxTextLen || vecLen > MaxVecLen {
			return 0, 0, false, ErrTooLarge
		}
		modelBytes = 8 * vecLen
	} else {
		textLen = int(binary.LittleEndian.Uint32(header[18:]))
		modelBytes = int(binary.LittleEndian.Uint32(header[22:]))
		if textLen > MaxTextLen || modelBytes > MaxPayloadLen {
			return 0, 0, false, ErrTooLarge
		}
	}
	return textLen, modelBytes, maxBody > 0 && textLen+modelBytes+4 > maxBody, nil
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
	key     []byte        // optional shared secret for per-frame HMAC (see SetKey)
	recvMAC hash.Hash     // HMAC under key that Recv streams each frame through
	tag     [MACSize]byte // the received frame's tag
	sum     [MACSize]byte // the tag recvMAC computed
	metrics *Metrics      // optional wire counters (see SetMetrics)
	maxBody int           // per-frame body cap for Recv (see SetMaxBodyLen)
	scratch frameScratch  // per-conn header and checksum scratch (one alloc/frame saved)
	vecs    vecPool       // dense model buffers handed back by Release
	unread  *Message      // a frame handed back by Unread, the next Recv's result

	sendMu sync.Mutex
	recvMu sync.Mutex

	// dlMu makes arming a Recv's read deadline and SetRecvDeadline's
	// override atomic with respect to each other; recvDL is the override
	// (zero = none).
	dlMu   sync.Mutex
	recvDL time.Time

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
// configured), or returns the frame Unread handed back. A dense model may be decoded into a buffer an earlier
// message handed back through Release; a message that is never
// released keeps its buffer for good.
func (c *Conn) Recv() (*Message, error) {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if m := c.unread; m != nil {
		c.unread = nil
		return m, nil
	}
	if err := c.armRecv(); err != nil {
		return nil, err
	}
	var m *Message
	var err error
	if c.key != nil {
		m, err = c.recvAuthenticated()
	} else {
		m, err = decodeFrame(c.br, &c.scratch, c.maxBody, &c.vecs, nil)
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

// Release hands the dense model of m, a message Recv returned on c,
// back for a later Recv to decode into, and clears m.Vec. After it,
// nothing may read the old m.Vec or any view of it (ModelPayload), so
// call it only once the model is dead. Releasing is an optimization:
// an unreleased message is simply garbage-collected. Codec (v2)
// payloads are never reused. Safe for concurrent use with Recv.
func (c *Conn) Release(m *Message) {
	if m.Payload != nil {
		return
	}
	c.vecs.put(m.Vec)
	m.Vec = nil
}

// Unread hands m, a message Recv returned on c, back to the
// connection: the next Recv returns m itself without reading the wire,
// arming a deadline or counting the frame again. It is a one-frame
// read-ahead — a reader that took a frame meant for a later caller
// puts it back — so the slot holds one message, and the message goes
// away with the connection.
func (c *Conn) Unread(m *Message) {
	c.recvMu.Lock()
	c.unread = m
	c.recvMu.Unlock()
}

// SetMaxBodyLen caps the body bytes (text + model + checksum) a single
// Recv on this connection will materialize. Frames claiming more are
// consumed to rejection without being allocated (see DecodeBounded).
// Zero restores the protocol-wide maxima — the budget of an admitted,
// authenticated peer. Servers set a small cap (HelloMaxBodyLen) on
// not-yet-admitted connections so a forged length field costs nothing.
// Must not be called concurrently with Recv.
func (c *Conn) SetMaxBodyLen(n int) { c.maxBody = n }

// SetRecvDeadline overrides the read deadline of an in-flight Recv and
// of every later one: while the override is set, Recv arms t instead of
// its per-frame Timeout. net.Conn guarantees a deadline update
// interrupts a blocked Read, so a peer waiting on a frame that will
// never arrive can be cut short without closing the connection, and a
// reader that has not yet entered Recv cannot re-arm past t. A zero t
// drops the override; later Recvs arm the per-frame Timeout again.
func (c *Conn) SetRecvDeadline(t time.Time) error {
	c.dlMu.Lock()
	defer c.dlMu.Unlock()
	c.recvDL = t
	if t.IsZero() {
		return nil
	}
	c.metrics.onDeadlineTrim()
	return c.conn.SetReadDeadline(t)
}

// armRecv sets the read deadline of one receive: the SetRecvDeadline
// override while one is set, else now plus the per-frame Timeout (none
// when Timeout is 0).
func (c *Conn) armRecv() error {
	c.dlMu.Lock()
	defer c.dlMu.Unlock()
	switch {
	case !c.recvDL.IsZero():
		return c.conn.SetReadDeadline(c.recvDL)
	case c.Timeout > 0:
		return c.conn.SetReadDeadline(time.Now().Add(c.Timeout))
	}
	return nil
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.conn.Close() }

// RemoteAddr returns the peer address.
func (c *Conn) RemoteAddr() net.Addr { return c.conn.RemoteAddr() }
