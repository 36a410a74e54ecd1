package node

import (
	"errors"
	"fmt"
	"net"
	"time"

	"fedms/internal/compress"
	"fedms/internal/obs"
	"fedms/internal/sched"
	"fedms/internal/spill"
	"fedms/internal/transport"
)

// maxBadFrames bounds how many consecutive corrupt or stale frames a
// tolerant reader skips before declaring the peer missing for the
// round, so a flood of garbage cannot stall a round forever.
const maxBadFrames = 8

// roundReader is what tells Algorithm 1's two barriers apart — a PS
// reading its clients' uploads, a client reading its servers' global
// models — handed to readRound as data.
type roundReader struct {
	want     transport.Type // the type of every frame on the connection
	tolerant bool           // skip corrupt frames and survive misses; strict: fatal
	// decide rules on a frame tagged with origin against the current
	// round (the scheduler's cursor, or sched.DecideAt for a client).
	decide func(origin int) sched.Decision
	// spill routes a future-round model to a spill record filed under
	// server; otherwise the frame goes back on its connection
	// (Conn.Unread) as a later barrier's marker.
	spill   bool
	server  int
	skipped *obs.Counter // frames_skipped of the reading node
	// capAfter, when positive, is the straggler cap of barrier: the
	// holdouts' read deadline once the first live connection delivers.
	capAfter time.Duration
}

// roundRecv is one connection's contribution to a round: the models
// admitted up to (and including) its round marker — the frame tagged
// with the current round — plus the spill records of any future-round
// models that prove the marker lost. Everything fully received before a
// failure is reported, so a connection that delivers valid stale
// uploads and then dies still has them admitted and its bytes tallied.
type roundRecv struct {
	conn    *transport.Conn
	entries []sched.Entry // Client is the peer, a server id on a client
	// frames are the messages entries view, released to conn once the
	// round's models are dead.
	frames   []*transport.Message
	deferred []spill.Record
	bytes    int // model payload bytes on the wire
	floats   int // float64-equivalent wire elements (ModelWireFloats)
	dropped  int // models past the staleness bound
	// missed marks a round whose marker never arrived (timeout, too much
	// corruption, a malformed marker payload, or a peer already a round
	// ahead); the connection stays live. expired narrows that to a
	// window-deadline hit.
	missed, expired bool
	// dead marks an unrecoverable connection; err says why.
	dead bool
	err  error
}

func (r *roundRecv) tally(m *transport.Message) {
	r.bytes += m.ModelWireBytes()
	r.floats += m.ModelWireFloats()
}

// barrier is one round of Algorithm 1's barrier over conns (a nil
// connection is a retired peer): one readRound per live connection, all
// bounded by deadline (see readRound), gathered by peer. The result is
// indexed like conns; a retired peer's entry is zero (conn nil), so a
// caller walking it meets failures in peer order and a strict node
// names the lowest failing peer, whatever order the readers finished in.
//
// rr.capAfter is the straggler cap of a tolerant sync barrier. Once the
// first connection that is not dead delivers, this round's frames are
// provably flowing, so the holdouts — in practice frames the fault layer
// dropped — get only capAfter more before they count as missed. Without
// it, a dropped frame stalls the round by the full Timeout, which is
// exactly the receive window the OTHER servers armed for the next
// round: honest frames then land on that deadline at the scheduler's
// whim, and seeded reruns diverge. A dead connection proves nothing
// about the others, so it never arms the cap. The cap holds for every
// Recv until all readers have returned (Conn.SetRecvDeadline), so a
// reader that has not reached Recv yet cannot re-arm the full Timeout
// over it. A window needs no cap: its deadline already bounds every
// reader.
func barrier(rr *roundReader, conns []*transport.Conn, deadline time.Time) []roundRecv {
	out := make([]roundRecv, len(conns))
	done := make(chan int, len(conns))
	waiting := make([]bool, len(conns))
	live := 0
	for id, conn := range conns {
		if conn == nil {
			continue
		}
		live++
		waiting[id] = true
		go func() {
			out[id] = readRound(rr, id, conn, deadline)
			done <- id
		}()
	}
	capped := false
	for range live {
		id := <-done
		waiting[id] = false
		if rr.capAfter > 0 && !capped && !out[id].dead {
			capped = true
			dl := time.Now().Add(rr.capAfter)
			for j, w := range waiting {
				if w {
					_ = conns[j].SetRecvDeadline(dl)
				}
			}
		}
	}
	if capped {
		// Every reader has returned: the next round's Recvs arm the
		// per-frame Timeout again.
		for _, c := range conns {
			if c != nil {
				_ = c.SetRecvDeadline(time.Time{})
			}
		}
	}
	return out
}

// release hands every frame a round's models viewed back to its
// connection, once those models are dead.
func release(rs []roundRecv) {
	for _, r := range rs {
		for _, m := range r.frames {
			r.conn.Release(m)
		}
	}
}

// readRound reads peer id's frames for the current round until its
// round marker arrives, the deadline passes, or the connection fails.
// rr.decide rules on every frame: stale ones within the bound are
// admitted down-weighted, a future-round one means this round's marker
// was lost, and anything older is inadmissible. A zero deadline is the
// sync barrier — every frame gets the connection's own Timeout, and a
// timeout is a peer fault; a non-zero one is the async window — the
// reader narrows the per-frame timeout toward it before each Recv
// (Recv re-arms conn.Timeout itself; see transport.Conn), and hitting
// it is an expiry, the expected face of a straggler, never a fault.
func readRound(rr *roundReader, id int, conn *transport.Conn, deadline time.Time) roundRecv {
	out := roundRecv{conn: conn}
	windowed := !deadline.IsZero()
	saved := conn.Timeout
	defer func() { conn.Timeout = saved }()
	// skip counts one unreadable or inadmissible frame against
	// maxBadFrames and reports whether the reader should give up on
	// this round's marker.
	bad := 0
	skip := func() bool {
		rr.skipped.Inc()
		bad++
		return bad >= maxBadFrames
	}
	for {
		if windowed {
			remain := time.Until(deadline)
			if remain <= 0 {
				out.missed, out.expired = true, true
				return out
			}
			if saved > 0 {
				remain = min(remain, saved)
			}
			conn.Timeout = remain
		}
		m, err := conn.Recv()
		if err != nil {
			switch {
			case isUnreadable(err) && rr.tolerant:
				// The stream is still frame-aligned: skip the mangled
				// frame and keep reading.
				if !skip() {
					continue
				}
				out.missed = true
			case isTimeout(err) && windowed:
				out.missed, out.expired = true, true
			case isTimeout(err) && rr.tolerant:
				out.missed = true
			default:
				out.dead, out.err = true, err
			}
			return out
		}
		d := rr.decide(int(m.Round))
		// Outside the current round only a window or a tolerant barrier
		// has a use for the frame; the strict barrier is the paper's
		// synchronous model, where it is a protocol violation.
		if m.Type != rr.want || (d.Outcome != sched.Accept && !windowed && !rr.tolerant) {
			out.dead = true
			out.err = fmt.Errorf("unexpected %s (round %d)", m.Type, m.Round)
			return out
		}
		model := m.CarriesModel()
		switch d.Outcome {
		case sched.Accept, sched.AcceptStale:
			marker := d.Outcome == sched.Accept
			if model {
				pl, perr := m.ModelPayload()
				switch {
				case perr == nil:
					out.entries = append(out.entries, sched.Entry{
						Client: id, Origin: int(m.Round), Stale: d.Staleness, Weight: d.Weight, View: pl,
					})
					out.frames = append(out.frames, m)
					out.tally(m)
				case !rr.tolerant:
					out.dead, out.err = true, perr
					return out
				default:
					// The frame checksummed, so a malformed codec payload
					// is a sender lying on the wire, not line noise.
					// Tolerant mode degrades it to a miss (the marker is
					// consumed) or one more skipped stale frame.
					if giveUp := skip(); marker || giveUp {
						out.missed = true
						return out
					}
				}
			}
			if marker {
				return out // the marker closes this connection's round
			}
		case sched.Defer:
			// This round's marker was lost and the peer has moved on.
			// With a spill buffer the model is parked there for replay
			// when its round opens; without one the frame itself goes
			// back on the connection — it is the marker of a later
			// barrier.
			if !rr.spill {
				conn.Unread(m)
			} else if model {
				rec := spill.Record{Client: id, Server: rr.server, Origin: int(m.Round), Due: int(m.Round)}
				if m.Payload != nil {
					rec.Enc, rec.Data = byte(m.Enc), m.Payload
				} else {
					rec.Enc, rec.Data = byte(compress.EncDense), compress.DenseWire(m.Vec)
				}
				out.deferred = append(out.deferred, rec)
				out.tally(m)
			}
			out.missed = true
			return out
		case sched.DropStale:
			conn.Release(m) // only counted, never read
			if windowed {
				// A late upload the client counted as sent; the window
				// deadline bounds how many of these a round can read.
				if model {
					out.tally(m)
					out.dropped++
				}
			} else if skip() {
				// Under a barrier a past-round frame is a duplicated or
				// delayed one, and each re-arms the per-frame timeout —
				// so it counts against the garbage bound.
				out.missed = true
				return out
			}
		}
	}
}

// isUnreadable reports whether err rejected one mangled frame (bad
// checksum, MAC or payload) on a stream that is still frame-aligned,
// so a tolerant reader can skip the frame and keep reading.
func isUnreadable(err error) bool {
	return errors.Is(err, transport.ErrBadChecksum) || errors.Is(err, transport.ErrBadMAC) ||
		errors.Is(err, transport.ErrBadPayload)
}

// isTimeout reports whether err is a network timeout (deadline
// exceeded), as opposed to a dead connection.
func isTimeout(err error) bool {
	var ne net.Error
	return errors.As(err, &ne) && ne.Timeout()
}
