package netdev

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/israce"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// counter counts the frames delivered to it.
type counter struct{ n int }

func (c *counter) Receive(*ethernet.Frame, *Ifc) { c.n++ }

// TestTransmitAllocFree gates the link layer of the frame path: on a
// warmed engine one transmit, its delivery and its completion allocate
// nothing.
func TestTransmitAllocFree(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := sim.NewEngine()
	rx := &counter{}
	a := NewIfc(e, "a", &counter{}, ethernet.Gbps)
	b := NewIfc(e, "b", rx, ethernet.Gbps)
	Connect(a, b, 100*sim.Nanosecond)
	f := &ethernet.Frame{}
	completions := 0
	onDone := func() { completions++ }
	send := func() {
		a.Transmit(f, onDone)
		e.Run()
	}
	send() // warm the event free list and the wire FIFO
	if allocs := testing.AllocsPerRun(1000, send); allocs != 0 {
		t.Fatalf("transmit+deliver allocated %.1f/frame, want 0", allocs)
	}
	if rx.n != completions || rx.n < 1000 {
		t.Fatalf("delivered %d frames for %d completions", rx.n, completions)
	}
}

// TestFirstLaunchUsesTheInlineSlot: an interface's inbound wire FIFO
// starts on the slot inside the Ifc, so the first frame a fresh
// CableDelay cable carries costs nothing beyond building the two ends.
func TestFirstLaunchUsesTheInlineSlot(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := sim.NewEngine()
	noop := func(*sim.Engine) {}
	e.At(1, "warm", noop) // an event block and a free list for two events
	e.At(2, "warm", noop)
	e.Run()
	cable := func() *Ifc {
		a := NewIfc(e, "a", &counter{}, ethernet.Gbps)
		Connect(a, NewIfc(e, "b", &counter{}, ethernet.Gbps), CableDelay)
		return a
	}
	f := &ethernet.Frame{}
	built := testing.AllocsPerRun(10, func() { cable() })
	carried := testing.AllocsPerRun(10, func() {
		cable().Transmit(f, nil)
		e.Run()
	})
	if carried != built {
		t.Fatalf("a fresh cable's first frame allocated %.0f times beyond building it, want 0", carried-built)
	}
}
