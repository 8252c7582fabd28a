package netdev

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

func bigFrame() *ethernet.Frame {
	return &ethernet.Frame{Payload: make([]byte, 1478)} // 1500B wire
}

func TestAbortMidFrame(t *testing.T) {
	e := sim.NewEngine()
	a, _, _, sb := pair(e, 0)
	e.After(0, "tx", func(*sim.Engine) { a.Transmit(bigFrame(), nil) })
	// 6 µs in: ~750 of 1500 bytes sent.
	e.RunUntil(6 * sim.Microsecond)
	f, remaining, ok := a.Abort()
	if !ok {
		t.Fatal("mid-frame abort refused")
	}
	// ~750 bytes left + 24 B fragment overhead.
	if remaining < 700 || remaining > 820 {
		t.Fatalf("remaining = %d", remaining)
	}
	// Delivery was suppressed.
	e.Run()
	if len(sb.frames) != 0 {
		t.Fatal("aborted frame delivered")
	}
	// The wire frees shortly (mCRC + IFG), then Resume delivers whole.
	if a.Busy() {
		e.RunUntil(e.Now() + ethernet.TxTime(ethernet.OverheadBytes, ethernet.Gbps))
	}
	done := false
	a.Resume(f, remaining, func() { done = true })
	e.Run()
	if len(sb.frames) != 1 || !done {
		t.Fatalf("resume delivered %d frames, done=%v", len(sb.frames), done)
	}
}

func TestAbortTooEarlyRefused(t *testing.T) {
	e := sim.NewEngine()
	a, _, _, _ := pair(e, 0)
	e.After(0, "tx", func(*sim.Engine) { a.Transmit(bigFrame(), nil) })
	// 100 ns in: only ~12 bytes sent (< 64 B minimum fragment).
	e.RunUntil(100 * sim.Nanosecond)
	if _, _, ok := a.Abort(); ok {
		t.Fatal("abort accepted before the minimum fragment")
	}
	e.Run() // frame must still complete normally
}

func TestAbortTooLateRefused(t *testing.T) {
	e := sim.NewEngine()
	a, _, _, _ := pair(e, 0)
	e.After(0, "tx", func(*sim.Engine) { a.Transmit(bigFrame(), nil) })
	// 11.9 µs in: fewer than 64 bytes remain.
	e.RunUntil(11900 * sim.Nanosecond)
	if _, _, ok := a.Abort(); ok {
		t.Fatal("abort accepted with a sub-minimum remainder")
	}
}

func TestAbortAfterCompletionRefused(t *testing.T) {
	e := sim.NewEngine()
	a, _, _, _ := pair(e, 0)
	e.After(0, "tx", func(*sim.Engine) { a.Transmit(bigFrame(), nil) })
	e.Run()
	if _, _, ok := a.Abort(); ok {
		t.Fatal("abort accepted after completion")
	}
}

func TestAbortDoubleRefused(t *testing.T) {
	e := sim.NewEngine()
	a, _, _, _ := pair(e, 0)
	e.After(0, "tx", func(*sim.Engine) { a.Transmit(bigFrame(), nil) })
	e.RunUntil(6 * sim.Microsecond)
	if _, _, ok := a.Abort(); !ok {
		t.Fatal("first abort refused")
	}
	if _, _, ok := a.Abort(); ok {
		t.Fatal("second abort accepted")
	}
}

func TestHandleFrameAccessor(t *testing.T) {
	e := sim.NewEngine()
	a, _, _, _ := pair(e, 0)
	f := bigFrame()
	f.FlowID = 77
	e.After(0, "tx", func(*sim.Engine) {
		a.Transmit(f, nil)
		if !a.InFlight() {
			t.Error("InFlight false while serializing")
		}
	})
	e.Run()
	if a.InFlight() {
		t.Error("InFlight true on an idle interface")
	}
}
