package transport

import (
	"bytes"
	"errors"
	"fmt"
	"net"
	"reflect"
	"testing"
	"time"
)

// chaosConfig is a schedule with every fault kind live, used by the
// determinism tests.
func chaosConfig(seed uint64) FaultConfig {
	return FaultConfig{
		Seed:      seed,
		Drop:      0.2,
		Truncate:  0.05,
		Corrupt:   0.2,
		Duplicate: 0.1,
		Delay:     0.2,
		MaxDelay:  time.Millisecond,
	}
}

// TestFaultScheduleDeterministic is the reproducibility acceptance
// criterion: two injectors built from the same seed produce
// byte-identical fault sequences for the same links and frame sizes.
func TestFaultScheduleDeterministic(t *testing.T) {
	run := func() map[string][]string {
		fi := NewFaultInjector(chaosConfig(42))
		for _, label := range []string{"c0->ps0", "c1->ps0", "ps0->c0"} {
			l := fi.Link(label)
			for i := 0; i < 200; i++ {
				l.Next(headerLen + i%97)
			}
		}
		return fi.Trace()
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed produced different fault schedules:\n%v\nvs\n%v", a, b)
	}
	if len(a) != 3 {
		t.Fatalf("trace has %d links, want 3", len(a))
	}
	fired := false
	for label, events := range a {
		if len(events) != 200 {
			t.Fatalf("link %s drew %d events, want 200", label, len(events))
		}
		for _, e := range events {
			if e != "pass" {
				fired = true
			}
		}
	}
	if !fired {
		t.Fatal("no fault fired in 600 draws at these rates")
	}
}

// TestFaultLinksIndependent checks that each link's stream depends only
// on its label: interleaving draws across links does not change any
// link's schedule.
func TestFaultLinksIndependent(t *testing.T) {
	solo := NewFaultInjector(chaosConfig(7))
	a := solo.Link("a")
	for i := 0; i < 100; i++ {
		a.Next(256)
	}

	mixed := NewFaultInjector(chaosConfig(7))
	am, bm := mixed.Link("a"), mixed.Link("b")
	for i := 0; i < 100; i++ {
		bm.Next(64) // interleave draws on another link
		am.Next(256)
	}
	if !reflect.DeepEqual(a.Trace(), am.Trace()) {
		t.Fatal("draws on link b perturbed link a's schedule")
	}
}

// TestZeroRatesConsumeNoRandomness checks that disabling a fault kind
// never shifts the schedule of the kinds that stay enabled.
func TestZeroRatesConsumeNoRandomness(t *testing.T) {
	withAll := NewFaultInjector(FaultConfig{Seed: 3, Drop: 0.3})
	dropOnly := NewFaultInjector(FaultConfig{Seed: 3, Drop: 0.3, Corrupt: 0, Delay: 0})
	la, lb := withAll.Link("x"), dropOnly.Link("x")
	for i := 0; i < 200; i++ {
		if got, want := lb.Next(128), la.Next(128); got != want {
			t.Fatalf("draw %d: %v vs %v", i, got, want)
		}
	}
}

func TestFaultMutateShapes(t *testing.T) {
	frame := Encode(&Message{Type: TypeUpload, Round: 3, Vec: []float64{1, 2, 3}})
	cases := []struct {
		cfg   FaultConfig
		check func(t *testing.T, out []byte, ev FaultEvent)
	}{
		{FaultConfig{Seed: 1, Drop: 1}, func(t *testing.T, out []byte, ev FaultEvent) {
			if ev.Kind != FaultDrop || out != nil {
				t.Fatalf("drop: ev=%v len=%d", ev, len(out))
			}
		}},
		{FaultConfig{Seed: 1, Truncate: 1}, func(t *testing.T, out []byte, ev FaultEvent) {
			if ev.Kind != FaultTruncate || len(out) != ev.Offset || len(out) >= len(frame) {
				t.Fatalf("truncate: ev=%v len=%d", ev, len(out))
			}
		}},
		{FaultConfig{Seed: 1, Corrupt: 1}, func(t *testing.T, out []byte, ev FaultEvent) {
			if ev.Kind != FaultCorrupt || len(out) != len(frame) {
				t.Fatalf("corrupt: ev=%v len=%d", ev, len(out))
			}
			if ev.Offset < headerLen {
				t.Fatalf("corrupt offset %d inside header (< %d)", ev.Offset, headerLen)
			}
			diff := 0
			for i := range out {
				if out[i] != frame[i] {
					diff++
				}
			}
			if diff != 1 {
				t.Fatalf("corrupt changed %d bytes, want 1", diff)
			}
			if _, err := Decode(bytes.NewReader(out)); !errors.Is(err, ErrBadChecksum) {
				t.Fatalf("corrupted frame decoded with err=%v, want ErrBadChecksum", err)
			}
		}},
		{FaultConfig{Seed: 1, Duplicate: 1}, func(t *testing.T, out []byte, ev FaultEvent) {
			if ev.Kind != FaultDuplicate || len(out) != 2*len(frame) {
				t.Fatalf("duplicate: ev=%v len=%d", ev, len(out))
			}
		}},
		{FaultConfig{Seed: 1}, func(t *testing.T, out []byte, ev FaultEvent) {
			if ev.Kind != FaultNone || len(out) != len(frame) {
				t.Fatalf("pass: ev=%v len=%d", ev, len(out))
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.cfg.describe(), func(t *testing.T) {
			out, ev := NewFaultInjector(tc.cfg).Link("l").Mutate(frame)
			tc.check(t, out, ev)
		})
	}
}

// recordConn is a net.Conn stand-in that records every Write.
type recordConn struct {
	net.Conn
	writes [][]byte
}

func (r *recordConn) Write(p []byte) (int, error) {
	r.writes = append(r.writes, append([]byte(nil), p...))
	return len(p), nil
}

// TestFaultConnWritesMutate: under a schedule with every fault kind
// live, faultConn reports every frame as written and puts on the wire,
// in one write per surviving frame, exactly the bytes Mutate returns
// from a twin link.
func TestFaultConnWritesMutate(t *testing.T) {
	cfg := chaosConfig(3)
	rec := &recordConn{}
	fc := &faultConn{Conn: rec, link: NewFaultInjector(cfg).Link("a->b")}
	twin := NewFaultInjector(cfg).Link("a->b")
	var want [][]byte
	for i := 0; i < 200; i++ {
		frame := Encode(&Message{Type: TypeUpload, Round: uint32(i), Vec: []float64{float64(i), 2, 3}})
		if n, err := fc.Write(frame); n != len(frame) || err != nil {
			t.Fatalf("frame %d: Write = %d, %v; want %d, nil", i, n, err, len(frame))
		}
		if out, _ := twin.Mutate(frame); len(out) > 0 {
			want = append(want, out)
		}
	}
	if !reflect.DeepEqual(rec.writes, want) {
		t.Fatalf("faultConn made %d writes, Mutate returned %d non-empty frames, or their bytes differ", len(rec.writes), len(want))
	}
}

// describe names a single-rate config for subtests.
func (c FaultConfig) describe() string {
	switch {
	case c.Drop > 0:
		return "drop"
	case c.Truncate > 0:
		return "truncate"
	case c.Corrupt > 0:
		return "corrupt"
	case c.Duplicate > 0:
		return "duplicate"
	case c.Delay > 0:
		return "delay"
	default:
		return "pass"
	}
}

// TestCorruptFrameSkippable is the recoverability contract: a tolerant
// reader sees ErrBadChecksum for the corrupted frame and then reads the
// next frame cleanly — the stream stays frame-aligned.
func TestCorruptFrameSkippable(t *testing.T) {
	a, b := pipePair(t)

	// Corrupt the first frame via the injector's Mutate (the exact
	// bytes faultConn would emit), then send a clean frame behind it.
	fi := NewFaultInjector(FaultConfig{Seed: 9, Corrupt: 1})
	frame := Encode(&Message{Type: TypeUpload, Round: 1, Vec: []float64{1, 2}})
	bad, ev := fi.Link("a->b").Mutate(frame)
	if ev.Kind != FaultCorrupt {
		t.Fatalf("drew %v, want corrupt", ev)
	}
	if _, err := a.conn.Write(bad); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&Message{Type: TypeUpload, Round: 2, Vec: []float64{3, 4}}); err != nil {
		t.Fatal(err)
	}

	if _, err := b.Recv(); !errors.Is(err, ErrBadChecksum) {
		t.Fatalf("first recv err = %v, want ErrBadChecksum", err)
	}
	m, err := b.Recv()
	if err != nil {
		t.Fatalf("recv after corrupt frame: %v", err)
	}
	if m.Round != 2 || m.Vec[0] != 3 {
		t.Fatalf("wrong frame after skip: %+v", m)
	}
}

// TestCorruptFrameSkippableAuthenticated runs the same contract with
// per-frame MACs: the reader must also discard the corrupt frame's tag
// to stay aligned.
func TestCorruptFrameSkippableAuthenticated(t *testing.T) {
	a, b := pipePair(t)
	key := []byte("secret")
	a.SetKey(key)
	b.SetKey(key)

	fi := NewFaultInjector(FaultConfig{Seed: 11, Corrupt: 1})
	frame := Encode(&Message{Type: TypeUpload, Round: 1, Vec: []float64{1}})
	bad, ev := fi.Link("a->b").Mutate(frame)
	if ev.Kind != FaultCorrupt {
		t.Fatalf("drew %v, want corrupt", ev)
	}
	// The wire carries frame ‖ tag; corrupt the frame, keep the tag
	// slot occupied so the reader can discard it and stay aligned.
	if _, err := a.conn.Write(append(bad, seal(key, frame)...)); err != nil {
		t.Fatal(err)
	}
	if err := a.Send(&Message{Type: TypeUpload, Round: 2, Vec: []float64{5}}); err != nil {
		t.Fatal(err)
	}

	if _, err := b.Recv(); !errors.Is(err, ErrBadChecksum) && !errors.Is(err, ErrBadMAC) {
		t.Fatalf("first recv err = %v, want checksum or MAC failure", err)
	}
	m, err := b.Recv()
	if err != nil {
		t.Fatalf("recv after corrupt authenticated frame: %v", err)
	}
	if m.Round != 2 || m.Vec[0] != 5 {
		t.Fatalf("wrong frame after skip: %+v", m)
	}
}

// TestDroppedFrameTimesOut checks the drop → receiver-timeout path.
func TestDroppedFrameTimesOut(t *testing.T) {
	a, b := pipePair(t)
	b.Timeout = 100 * time.Millisecond
	fi := NewFaultInjector(FaultConfig{Seed: 5, Drop: 1})
	a.SetFaults(fi.Link("a->b"))
	if err := a.Send(&Message{Type: TypeUpload, Round: 1}); err != nil {
		t.Fatalf("dropped send must still report success, got %v", err)
	}
	_, err := b.Recv()
	var ne interface{ Timeout() bool }
	if err == nil || !errors.As(err, &ne) || !ne.Timeout() {
		t.Fatalf("recv err = %v, want timeout", err)
	}
}

// TestDuplicateFrameDelivered checks that a duplicated frame arrives
// twice and both copies parse.
func TestDuplicateFrameDelivered(t *testing.T) {
	a, b := pipePair(t)
	fi := NewFaultInjector(FaultConfig{Seed: 5, Duplicate: 1})
	a.SetFaults(fi.Link("a->b"))
	if err := a.Send(&Message{Type: TypeGlobalModel, Round: 4, Vec: []float64{7}}); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2; i++ {
		m, err := b.Recv()
		if err != nil {
			t.Fatalf("copy %d: %v", i, err)
		}
		if m.Round != 4 || m.Vec[0] != 7 {
			t.Fatalf("copy %d: %+v", i, m)
		}
	}
}

// TestFaultLinkLabelsShareSchedule checks that one label names one
// link, so every connection faulted under that label draws from the
// same stream.
func TestFaultLinkLabelsShareSchedule(t *testing.T) {
	fi := NewFaultInjector(chaosConfig(13))
	l1 := fi.Link("x")
	l2 := fi.Link("x")
	if l1 != l2 {
		t.Fatal("same label returned distinct links")
	}
	if fi.Link("y") == l1 {
		t.Fatal("distinct labels share a link")
	}
}

func TestFaultKindStrings(t *testing.T) {
	for k, want := range map[FaultKind]string{
		FaultNone: "pass", FaultDrop: "drop",
		FaultTruncate: "trunc", FaultCorrupt: "corrupt",
		FaultDuplicate: "dup", FaultDelay: "delay",
	} {
		if got := k.String(); got != want {
			t.Errorf("%d.String() = %q, want %q", k, got, want)
		}
	}
	ev := FaultEvent{Kind: FaultCorrupt, Offset: 30, Bit: 5}
	if got := ev.String(); got != "corrupt:30.5" {
		t.Errorf("event string = %q", got)
	}
	if got := fmt.Sprint(FaultKind(99)); got != "FaultKind(99)" {
		t.Errorf("unknown kind = %q", got)
	}
}
