package netdev

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// sink records received frames with their arrival times.
type sink struct {
	frames []*ethernet.Frame
	times  []sim.Time
	engine *sim.Engine
}

func (s *sink) Receive(f *ethernet.Frame, on *Ifc) {
	s.frames = append(s.frames, f)
	s.times = append(s.times, s.engine.Now())
}

func pair(e *sim.Engine, prop sim.Time) (*Ifc, *Ifc, *sink, *sink) {
	sa, sb := &sink{engine: e}, &sink{engine: e}
	a := NewIfc(e, "a", sa, ethernet.Gbps)
	b := NewIfc(e, "b", sb, ethernet.Gbps)
	Connect(a, b, prop)
	return a, b, sa, sb
}

func TestTransmitDelivers(t *testing.T) {
	e := sim.NewEngine()
	a, _, _, sb := pair(e, 100*sim.Nanosecond)
	f := &ethernet.Frame{FlowID: 42} // 64B minimum frame
	done := false
	e.After(0, "tx", func(*sim.Engine) { a.Transmit(f, func() { done = true }) })
	e.Run()
	if len(sb.frames) != 1 || sb.frames[0].FlowID != 42 {
		t.Fatalf("delivery wrong: %v", sb.frames)
	}
	// 64B at 1 Gbps = 512 ns serialization + 100 ns propagation.
	if sb.times[0] != 612*sim.Nanosecond {
		t.Fatalf("arrival = %v, want 612ns", sb.times[0])
	}
	if !done {
		t.Fatal("onDone never fired")
	}
}

func TestTransmitOccupancyIncludesIFG(t *testing.T) {
	e := sim.NewEngine()
	a, _, _, _ := pair(e, 0)
	var freeAt sim.Time
	e.After(0, "tx", func(*sim.Engine) {
		a.Transmit(&ethernet.Frame{}, nil)
		freeAt = a.FreeAt()
	})
	e.Run()
	// (64+20)B at 1 Gbps = 672 ns.
	if freeAt != 672*sim.Nanosecond {
		t.Fatalf("FreeAt = %v, want 672ns", freeAt)
	}
}

func TestTransmitWhileBusyPanics(t *testing.T) {
	e := sim.NewEngine()
	a, _, _, _ := pair(e, 0)
	e.After(0, "tx", func(*sim.Engine) {
		a.Transmit(&ethernet.Frame{}, nil)
		defer func() {
			if recover() == nil {
				t.Error("transmit while busy did not panic")
			}
		}()
		a.Transmit(&ethernet.Frame{}, nil)
	})
	e.Run()
}

func TestBackToBackViaOnDone(t *testing.T) {
	e := sim.NewEngine()
	a, _, _, sb := pair(e, 0)
	sent := 0
	var sendNext func()
	sendNext = func() {
		if sent >= 3 {
			return
		}
		sent++
		a.Transmit(&ethernet.Frame{Seq: uint32(sent)}, sendNext)
	}
	e.After(0, "start", func(*sim.Engine) { sendNext() })
	e.Run()
	if len(sb.frames) != 3 {
		t.Fatalf("received %d frames, want 3", len(sb.frames))
	}
	// Frames are spaced by full occupancy (672 ns), arrivals at
	// 512, 1184, 1856 ns.
	if sb.times[1]-sb.times[0] != 672*sim.Nanosecond {
		t.Fatalf("spacing = %v, want 672ns", sb.times[1]-sb.times[0])
	}
}

func TestTransmitTransfersOwnership(t *testing.T) {
	// Transmit hands the frame to the wire: the peer's Receive gets the
	// very pointer that was transmitted (no per-hop copy), payload bytes
	// included.
	e := sim.NewEngine()
	a, _, _, sb := pair(e, 0)
	f := &ethernet.Frame{Seq: 1, VID: 7, Payload: []byte{1}}
	e.After(0, "tx", func(*sim.Engine) { a.Transmit(f, nil) })
	e.Run()
	if len(sb.frames) != 1 || sb.frames[0] != f {
		t.Fatalf("delivered %v, want the transmitted pointer %p", sb.frames, f)
	}
	if &sb.frames[0].Payload[0] != &f.Payload[0] {
		t.Fatal("delivery copied the payload; want shared bytes")
	}
}

func TestAbortReturnsOwnership(t *testing.T) {
	// A successful Abort takes the frame off the wire and gives it back:
	// no delivery ever fires for that launch, and Resume delivers that
	// same frame exactly once.
	e := sim.NewEngine()
	a, _, _, sb := pair(e, 100*sim.Nanosecond)
	f := bigFrame()
	e.After(0, "tx", func(*sim.Engine) { a.Transmit(f, nil) })
	e.RunUntil(6 * sim.Microsecond)
	got, remaining, ok := a.Abort()
	if !ok || got != f {
		t.Fatalf("Abort = (%p, %d, %v), want the transmitted frame %p", got, remaining, ok, f)
	}
	if a.InFlight() {
		t.Fatal("aborted frame still in flight")
	}
	e.Run()
	if len(sb.frames) != 0 || e.Pending() != 0 {
		t.Fatalf("aborted launch delivered %d frames, %d events pending", len(sb.frames), e.Pending())
	}
	e.RunUntil(a.FreeAt()) // the fragment's mCRC + IFG
	done := 0
	a.Resume(got, remaining, func() { done++ })
	e.Run()
	if len(sb.frames) != 1 || sb.frames[0] != f || done != 1 {
		t.Fatalf("resume delivered %v (done=%d), want %p exactly once", sb.frames, done, f)
	}
}

func TestWireFIFOAcrossFlap(t *testing.T) {
	// A 5 µs cable holds several 64 B frames at once (one launch per
	// 672 ns). The link flaps between the second and third launch: each
	// arrival is judged against its own launch epoch, so the two frames
	// launched before the flap are lost and the third arrives.
	e := sim.NewEngine()
	a, _, _, sb := pair(e, 5*sim.Microsecond)
	linkDrops := drops(a)
	frames := []*ethernet.Frame{{Seq: 1}, {Seq: 2}, {Seq: 3}}
	sent := 0
	var sendNext func()
	sendNext = func() {
		if sent == 2 {
			a.SetLink(false)
			a.SetLink(true)
		}
		if sent < len(frames) {
			sent++
			a.Transmit(frames[sent-1], sendNext)
		}
	}
	e.After(0, "start", func(*sim.Engine) { sendNext() })
	e.RunUntil(3 * 672 * sim.Nanosecond)
	if sent != 3 || len(sb.frames) != 0 {
		t.Fatalf("sent %d, delivered %d before the first arrival; want 3 in flight", sent, len(sb.frames))
	}
	e.Run()
	if len(sb.frames) != 1 || sb.frames[0] != frames[2] {
		t.Fatalf("delivered %v, want only the post-flap frame", sb.frames)
	}
	// Third launch at 2·672 ns, 512 ns serialization, 5 µs propagation.
	if want := (2*672 + 512 + 5000) * sim.Nanosecond; sb.times[0] != want {
		t.Fatalf("arrival = %v, want %v", sb.times[0], want)
	}
	if down, loss, corrupt := linkDrops(); down != 2 || loss != 0 || corrupt != 0 {
		t.Fatalf("drops = down %d loss %d corrupt %d, want 2/0/0", down, loss, corrupt)
	}
}

func TestFullDuplex(t *testing.T) {
	e := sim.NewEngine()
	a, b, sa, sb := pair(e, 0)
	e.After(0, "tx", func(*sim.Engine) {
		a.Transmit(&ethernet.Frame{Seq: 1}, nil)
		b.Transmit(&ethernet.Frame{Seq: 2}, nil) // simultaneous reverse direction
	})
	e.Run()
	if len(sa.frames) != 1 || len(sb.frames) != 1 {
		t.Fatal("full duplex failed")
	}
}

func TestConnectErrors(t *testing.T) {
	e := sim.NewEngine()
	s := &sink{engine: e}
	a := NewIfc(e, "a", s, ethernet.Gbps)
	b := NewIfc(e, "b", s, ethernet.Gbps)
	c := NewIfc(e, "c", s, ethernet.Gbps)
	Connect(a, b, 0)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("double connect did not panic")
			}
		}()
		Connect(a, c, 0)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("transmit without cable did not panic")
			}
		}()
		c.Transmit(&ethernet.Frame{}, nil)
	}()
}

func TestCounters(t *testing.T) {
	e := sim.NewEngine()
	a, _, _, sb := pair(e, 0)
	e.After(0, "tx", func(*sim.Engine) { a.Transmit(&ethernet.Frame{}, nil) })
	e.Run()
	// One minimum frame: 64 B plus preamble and gap held the wire.
	if free := a.FreeAt(); len(sb.frames) != 1 || free != ethernet.TxTime(64+ethernet.OverheadBytes, ethernet.Gbps) {
		t.Fatalf("delivered %d frames, wire free at %v", len(sb.frames), free)
	}
}
