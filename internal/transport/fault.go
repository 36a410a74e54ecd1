package transport

import (
	"fmt"
	"net"
	"sync"
	"time"

	"fedms/internal/randx"
)

// Deterministic fault injection: a FaultInjector hands out one seeded
// FaultLink per directed link ("c3->ps1", "ps1->c3", ...), and every
// frame written through that link draws exactly one fault event from
// the link's private RNG stream. The draw sequence depends only on
// (seed, config, label, frame sizes), never on goroutine scheduling, so
// a chaos run replays byte-identically from its seed — the property the
// chaos test tier asserts. The same schedule drives both the wire layer
// (faultConn below) and the analytic simulator (netsim), so a fault
// scenario can be rehearsed analytically and then executed over TCP.

// FaultKind classifies one injected fault event.
type FaultKind uint8

// Fault event kinds, in the priority order they are drawn.
const (
	// FaultNone delivers the frame untouched.
	FaultNone FaultKind = iota
	// FaultDrop silently discards the frame; the peer sees a timeout.
	FaultDrop
	// FaultTruncate writes only a prefix of the frame. This desyncs the
	// byte stream, so the connection is effectively killed.
	FaultTruncate
	// FaultCorrupt flips one bit in the frame body. The CRC (or MAC)
	// catches it and the stream stays frame-aligned, so tolerant
	// readers can skip the frame and continue.
	FaultCorrupt
	// FaultDuplicate writes the frame twice; tolerant readers discard
	// the stale copy.
	FaultDuplicate
	// FaultDelay sleeps before writing. Delays beyond the peer's frame
	// timeout look like drops.
	FaultDelay
)

// String implements fmt.Stringer.
func (k FaultKind) String() string {
	switch k {
	case FaultNone:
		return "pass"
	case FaultDrop:
		return "drop"
	case FaultTruncate:
		return "trunc"
	case FaultCorrupt:
		return "corrupt"
	case FaultDuplicate:
		return "dup"
	case FaultDelay:
		return "delay"
	default:
		return fmt.Sprintf("FaultKind(%d)", uint8(k))
	}
}

// FaultEvent is one drawn fault decision for one frame.
type FaultEvent struct {
	Kind FaultKind
	// Delay is the injected latency (FaultDelay only).
	Delay time.Duration
	// Offset is the byte offset truncated at (FaultTruncate) or
	// corrupted (FaultCorrupt).
	Offset int
	// Bit is the flipped bit position (FaultCorrupt only).
	Bit uint8
}

// String renders the event as a compact trace entry.
func (e FaultEvent) String() string {
	switch e.Kind {
	case FaultDelay:
		return fmt.Sprintf("delay:%s", e.Delay)
	case FaultTruncate:
		return fmt.Sprintf("trunc:%d", e.Offset)
	case FaultCorrupt:
		return fmt.Sprintf("corrupt:%d.%d", e.Offset, e.Bit)
	default:
		return e.Kind.String()
	}
}

// FaultConfig parameterizes a fault schedule. All rates are per-frame
// probabilities in [0, 1]; at most one fault fires per frame, drawn in
// the order drop, truncate, corrupt, duplicate, delay.
type FaultConfig struct {
	// Seed roots every link's schedule; links derive independent
	// streams via randx.Split(Seed, label).
	Seed uint64
	// Drop is the probability a frame is silently discarded.
	Drop float64
	// Truncate is the probability a frame is cut short mid-write,
	// killing the byte stream.
	Truncate float64
	// Corrupt is the probability one bit of the frame body is flipped
	// (recoverable: the CRC rejects the frame, the stream stays
	// aligned).
	Corrupt float64
	// Duplicate is the probability a frame is written twice.
	Duplicate float64
	// Delay is the probability a frame is delayed by U(0, MaxDelay].
	Delay float64
	// MaxDelay bounds injected latency (default 20ms when Delay > 0).
	MaxDelay time.Duration
}

// Enabled reports whether any fault can ever fire.
func (c FaultConfig) Enabled() bool {
	return c.Drop > 0 || c.Truncate > 0 || c.Corrupt > 0 || c.Duplicate > 0 || c.Delay > 0
}

// FaultInjector owns the fault schedule of one chaos run: one seeded
// FaultLink per directed link label. Safe for concurrent use.
type FaultInjector struct {
	cfg FaultConfig

	mu    sync.Mutex
	links map[string]*FaultLink
}

// NewFaultInjector builds an injector for the given schedule.
func NewFaultInjector(cfg FaultConfig) *FaultInjector {
	if cfg.Delay > 0 && cfg.MaxDelay <= 0 {
		cfg.MaxDelay = 20 * time.Millisecond
	}
	return &FaultInjector{cfg: cfg, links: make(map[string]*FaultLink)}
}

// Config returns the injector's schedule parameters.
func (fi *FaultInjector) Config() FaultConfig { return fi.cfg }

// Link returns the (unique) fault link for label, creating it on first
// use. The link's RNG stream depends only on (Seed, label).
func (fi *FaultInjector) Link(label string) *FaultLink {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	l, ok := fi.links[label]
	if !ok {
		l = &FaultLink{
			label: label,
			cfg:   fi.cfg,
			rng:   randx.Split(fi.cfg.Seed, "fault/"+label),
		}
		fi.links[label] = l
	}
	return l
}

// Trace snapshots every link's event history, keyed by label. Two runs
// with the same seed, config and frame sequence produce byte-identical
// traces.
func (fi *FaultInjector) Trace() map[string][]string {
	fi.mu.Lock()
	defer fi.mu.Unlock()
	out := make(map[string][]string, len(fi.links))
	for label, l := range fi.links {
		out[label] = l.Trace()
	}
	return out
}

// FaultLink is the seeded fault schedule of one directed link. Each
// frame consumes one event from the schedule; the event sequence is a
// pure function of (seed, config, label, frame sizes).
type FaultLink struct {
	label string
	cfg   FaultConfig

	mu    sync.Mutex
	rng   *randx.RNG
	trace []string
}

// Label returns the link's label.
func (l *FaultLink) Label() string { return l.label }

// Trace returns a copy of the link's event history.
func (l *FaultLink) Trace() []string {
	l.mu.Lock()
	defer l.mu.Unlock()
	return append([]string(nil), l.trace...)
}

// Next draws the fault event for the next frame of frameLen bytes and
// records it in the trace. Exported so the analytic simulator
// (internal/netsim) can consume the exact schedule the wire layer
// would.
func (l *FaultLink) Next(frameLen int) FaultEvent {
	l.mu.Lock()
	defer l.mu.Unlock()
	ev := l.draw(frameLen)
	l.trace = append(l.trace, ev.String())
	return ev
}

// draw picks one event. Caller holds l.mu. Zero-rate faults consume no
// RNG draws, so disabling a fault kind never perturbs the others'
// schedule.
func (l *FaultLink) draw(frameLen int) FaultEvent {
	if l.cfg.Drop > 0 && l.rng.Float64() < l.cfg.Drop {
		return FaultEvent{Kind: FaultDrop}
	}
	if l.cfg.Truncate > 0 && l.rng.Float64() < l.cfg.Truncate {
		off := 0
		if frameLen > 0 {
			off = l.rng.IntN(frameLen)
		}
		return FaultEvent{Kind: FaultTruncate, Offset: off}
	}
	if l.cfg.Corrupt > 0 && l.rng.Float64() < l.cfg.Corrupt {
		// Flip a bit past the fixed header so the length prefixes stay
		// intact and the receiver's stream remains frame-aligned (the
		// CRC rejects the frame; a tolerant reader just skips it). The
		// v2 header is the longer of the two, so skipping it keeps both
		// frame versions' prefixes safe.
		lo := headerLenV2
		if frameLen <= lo {
			lo = 0
		}
		off := lo
		if frameLen > lo {
			off = lo + l.rng.IntN(frameLen-lo)
		}
		return FaultEvent{Kind: FaultCorrupt, Offset: off, Bit: uint8(l.rng.IntN(8))}
	}
	if l.cfg.Duplicate > 0 && l.rng.Float64() < l.cfg.Duplicate {
		return FaultEvent{Kind: FaultDuplicate}
	}
	if l.cfg.Delay > 0 && l.rng.Float64() < l.cfg.Delay {
		return FaultEvent{Kind: FaultDelay, Delay: time.Duration(1 + l.rng.Int64N(int64(l.cfg.MaxDelay)))}
	}
	return FaultEvent{Kind: FaultNone}
}

// Mutate draws the next event and applies it to the frame bytes as the
// wire sees them: nil for a dropped frame, a prefix for a truncated one,
// a bit-flipped copy for a corrupted one, the frame twice for a
// duplicate, and the frame itself otherwise (a delay only postpones it).
// Only the corrupted and duplicated results are new buffers; the others
// alias frame. faultConn writes exactly what Mutate returns.
func (l *FaultLink) Mutate(frame []byte) ([]byte, FaultEvent) {
	ev := l.Next(len(frame))
	switch ev.Kind {
	case FaultDrop:
		return nil, ev
	case FaultTruncate:
		return frame[:ev.Offset], ev
	case FaultCorrupt:
		out := append([]byte(nil), frame...)
		if ev.Offset < len(out) {
			out[ev.Offset] ^= 1 << ev.Bit
		}
		return out, ev
	case FaultDuplicate:
		out := append([]byte(nil), frame...)
		return append(out, frame...), ev
	default:
		return frame, ev
	}
}

// faultConn wraps a net.Conn, applying the link's schedule to every
// Write. The framing layer (Conn.Send) issues exactly one Write per
// frame, so Write-level injection is frame-level injection. Reads pass
// through untouched: each direction of a duplex link is faulted by its
// sending side.
type faultConn struct {
	net.Conn
	link *FaultLink
}

// Write applies one fault event to the frame: it sleeps out a delay,
// then makes one write of what Mutate returns. It reports len(p) on
// success even when the frame was dropped or cut short — the sender
// cannot tell, exactly like a lossy network.
func (f *faultConn) Write(p []byte) (int, error) {
	out, ev := f.link.Mutate(p)
	if ev.Kind == FaultDelay {
		time.Sleep(ev.Delay)
	}
	if len(out) > 0 {
		if _, err := f.Conn.Write(out); err != nil {
			return 0, err
		}
	}
	return len(p), nil
}

// SetFaults routes this connection's outgoing frames through the given
// fault link (nil is a no-op). Must be called before the connection is
// used concurrently — in the node runtime, right after the hello
// exchange, so the handshake itself is never faulted. Reads are not
// faulted; the peer's own link faults the reverse direction.
func (c *Conn) SetFaults(l *FaultLink) {
	if l == nil {
		return
	}
	c.conn = &faultConn{Conn: c.conn, link: l}
}
