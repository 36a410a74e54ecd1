package transport

// Hello prefilter: the first line of defence on a parameter server's
// listener. Before an unauthenticated connection is allowed to cost
// anything — heap, a handshake slot's patience, per-client state — its
// first frame's header is validated in place from the connection's
// read buffer: magic, version, type (must be a hello) and the claimed
// body length against a small per-phase cap. Every check runs on
// peeked bytes; a rejected connection never triggers an allocation.
// This is the udpx-style "basic packet filter" ported to our stream
// transport (ROADMAP item 2).

// HelloMaxBodyLen is the body cap (text + model + checksum bytes) a
// parameter server applies to not-yet-admitted connections; admitted
// connections revert to the protocol maxima. Hellos are tiny by
// contract — a codec advertisement and a connect token in Text, no
// model — so 4 KiB leaves generous headroom while keeping the worst
// pre-auth allocation five orders of magnitude under MaxPayloadLen.
const HelloMaxBodyLen = 4 << 10

// HelloPrefilter validates the leading bytes of a stream as an
// admissible hello frame header, allocating nothing. hdr holds however
// many initial stream bytes the caller has (peeked, not consumed).
//
// It returns (need, nil) with need > len(hdr) when the verdict requires
// more header bytes, (0, nil) when the header passes, and (0, err)
// when the frame is rejectable on the header alone: ErrBadMagic,
// ErrBadVersion, ErrNotHello, ErrTooLarge (claim over the protocol
// maxima), or ErrOversizeFrame (claim over maxBody; 0 = no cap).
func HelloPrefilter(hdr []byte, maxBody int) (need int, err error) {
	const prefixLen = 4
	if len(hdr) < prefixLen {
		return prefixLen, nil
	}
	full, err := frameHeaderLen(hdr)
	if err != nil {
		return 0, err
	}
	if Type(hdr[3]) != TypeHello {
		return 0, ErrNotHello
	}
	if len(hdr) < full {
		return full, nil
	}
	_, _, oversize, err := bodyLens(hdr[:full], maxBody)
	if err == nil && oversize {
		err = ErrOversizeFrame
	}
	return 0, err
}

// PrefilterHello peeks the next frame's header from the connection's
// buffered reader and runs HelloPrefilter over it, consuming nothing.
// A nil return means the pending frame is a plausible hello within
// maxBody and the caller may Recv it; any other return is grounds to
// close the connection before a single body byte has been read or a
// single byte of heap spent on the peer. I/O failures (EOF from a
// port scanner, a deadline expiry from a slow-loris socket) surface
// as-is, distinct from the protocol rejections HelloPrefilter returns.
func (c *Conn) PrefilterHello(maxBody int) error {
	c.recvMu.Lock()
	defer c.recvMu.Unlock()
	if err := c.armRecv(); err != nil {
		return err
	}
	need := 4
	for {
		hdr, err := c.br.Peek(need)
		if err != nil {
			return err
		}
		more, perr := HelloPrefilter(hdr, maxBody)
		if perr != nil {
			return perr
		}
		if more == 0 {
			return nil
		}
		need = more
	}
}
