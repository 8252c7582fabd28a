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
