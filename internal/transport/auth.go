package transport

import (
	"crypto/hmac"
	"crypto/sha256"
	"errors"
	"io"
)

// Frame authentication: a deployment can configure a shared secret on
// both ends of a connection, in which case every frame is followed by
// an HMAC-SHA256 tag over the frame bytes. The CRC inside the frame
// catches corruption; the MAC rejects frames from parties that do not
// hold the secret (an attacker on the path can corrupt a Byzantine-
// tolerant protocol far more cheaply by *injecting* frames than by
// flipping bits).

// MACSize is the length of the per-frame authentication tag.
const MACSize = sha256.Size

// ErrBadMAC reports a frame whose authentication tag did not verify.
var ErrBadMAC = errors.New("transport: bad frame MAC")

// SetKey enables per-frame HMAC authentication with the given shared
// secret. Both peers must configure the same key; a nil or empty key
// disables authentication. Must be called before the first Send/Recv.
func (c *Conn) SetKey(key []byte) {
	if len(key) == 0 {
		c.key, c.recvMAC = nil, nil
		return
	}
	c.key = append([]byte(nil), key...)
	c.recvMAC = hmac.New(sha256.New, c.key)
}

// seal computes the tag for a frame.
func seal(key, frame []byte) []byte {
	mac := hmac.New(sha256.New, key)
	mac.Write(frame)
	return mac.Sum(nil)
}

// sendBytes writes raw bytes honoring the write deadline.
func (c *Conn) sendBytes(buf []byte) error {
	_, err := c.conn.Write(buf)
	return err
}

// recvAuthenticated reads one frame plus its MAC, verifying the tag.
// The frame's bytes stream through the connection's HMAC as they are
// decoded, so the tag is computed over exactly what was parsed without
// a copy of the frame. Frames over the body cap are chunk-discarded by
// the decoder and never verified.
func (c *Conn) recvAuthenticated() (*Message, error) {
	c.recvMAC.Reset()
	m, err := decodeFrame(c.br, &c.scratch, c.maxBody, &c.vecs, c.recvMAC)
	if err != nil {
		if errors.Is(err, ErrBadChecksum) || errors.Is(err, ErrBadPayload) ||
			errors.Is(err, ErrOversizeFrame) {
			// The frame body was fully consumed; discard its trailing
			// tag too so the stream stays frame-aligned and a tolerant
			// reader can skip the corrupt frame and keep going.
			_, _ = io.CopyN(io.Discard, c.br, MACSize)
		}
		return nil, err
	}
	if _, err := io.ReadFull(c.br, c.tag[:]); err != nil {
		c.Release(m)
		return nil, err
	}
	if !hmac.Equal(c.recvMAC.Sum(c.sum[:0]), c.tag[:]) {
		c.Release(m)
		return nil, ErrBadMAC
	}
	return m, nil
}
