package trace

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// flightEvent builds a distinguishable event: At carries the ordinal.
func flightEvent(i int, flow uint32) Event {
	return Event{At: sim.Time(i), Kind: KindEnqueue, FlowID: flow, Seq: uint32(i)}
}

func TestFlightWrap(t *testing.T) {
	fl := NewFlight(4)
	for i := 0; i < 10; i++ {
		fl.Record(flightEvent(i, 1))
	}
	if fl.Cap() != 4 || fl.Len() != 4 || fl.Seq() != 10 {
		t.Fatalf("cap/len/seq = %d/%d/%d, want 4/4/10", fl.Cap(), fl.Len(), fl.Seq())
	}
	snap := fl.Snapshot(fl.Cap())
	if len(snap) != 4 {
		t.Fatalf("snapshot holds %d events, want 4", len(snap))
	}
	for i, ev := range snap {
		if want := sim.Time(6 + i); ev.At != want {
			t.Fatalf("snapshot[%d].At = %v, want %v (oldest-first)", i, ev.At, want)
		}
	}
}

func TestFlightPartialFill(t *testing.T) {
	fl := NewFlight(8)
	for i := 0; i < 3; i++ {
		fl.Record(flightEvent(i, 1))
	}
	if fl.Len() != 3 {
		t.Fatalf("len = %d, want 3", fl.Len())
	}
	snap := fl.Snapshot(fl.Cap())
	if len(snap) != 3 || snap[0].At != 0 || snap[2].At != 2 {
		t.Fatalf("partial snapshot wrong: %+v", snap)
	}
}

func TestFlightSnapshotFlow(t *testing.T) {
	fl := NewFlight(16)
	for i := 0; i < 12; i++ {
		fl.Record(flightEvent(i, uint32(1+i%3)))
	}
	only := fl.SnapshotFlow(2, fl.Cap())
	if len(only) != 4 {
		t.Fatalf("flow-2 events = %d, want 4", len(only))
	}
	for _, ev := range only {
		if ev.FlowID != 2 {
			t.Fatalf("foreign flow %d in filtered snapshot", ev.FlowID)
		}
	}
}

// TestFlightSnapshotWindow: a bounded read sees only the newest last
// events, whatever else the ring holds.
func TestFlightSnapshotWindow(t *testing.T) {
	fl := NewFlight(16)
	for i := 0; i < 12; i++ {
		fl.Record(flightEvent(i, uint32(1+i%3)))
	}
	snap := fl.Snapshot(5)
	if len(snap) != 5 || snap[0].At != 7 || snap[4].At != 11 {
		t.Fatalf("Snapshot(5) = %+v, want ordinals 7..11", snap)
	}
	// Among ordinals 6..11, flow 2 recorded 7 and 10.
	only := fl.SnapshotFlow(2, 6)
	if len(only) != 2 || only[0].At != 7 || only[1].At != 10 {
		t.Fatalf("SnapshotFlow(2, 6) = %+v, want ordinals 7 and 10", only)
	}
	if got := fl.Snapshot(100); len(got) != 12 {
		t.Fatalf("Snapshot(100) holds %d events, want all 12", len(got))
	}
}

func TestFlightSinceCursor(t *testing.T) {
	fl := NewFlight(8)
	for i := 0; i < 3; i++ {
		fl.Record(flightEvent(i, 1))
	}
	got, next := fl.Since(0, nil)
	if len(got) != 3 || next != 3 {
		t.Fatalf("first read: %d events next=%d, want 3/3", len(got), next)
	}
	// Nothing new: same cursor back, no events.
	got, next = fl.Since(next, got[:0])
	if len(got) != 0 || next != 3 {
		t.Fatalf("idle read: %d events next=%d, want 0/3", len(got), next)
	}
	for i := 3; i < 5; i++ {
		fl.Record(flightEvent(i, 1))
	}
	got, next = fl.Since(next, got[:0])
	if len(got) != 2 || next != 5 || got[0].At != 3 || got[1].At != 4 {
		t.Fatalf("incremental read wrong: %+v next=%d", got, next)
	}
}

func TestFlightSinceClampsToOldestRetained(t *testing.T) {
	fl := NewFlight(4)
	for i := 0; i < 10; i++ {
		fl.Record(flightEvent(i, 1))
	}
	// Cursor 0 points into overwritten history: the read skips the gap
	// and returns only the retained tail.
	got, next := fl.Since(0, nil)
	if len(got) != 4 || next != 10 {
		t.Fatalf("clamped read: %d events next=%d, want 4/10", len(got), next)
	}
	if got[0].At != 6 {
		t.Fatalf("oldest retained = %v, want 6", got[0].At)
	}
}

func TestFlightNilSafe(t *testing.T) {
	var fl *Flight
	fl.Record(flightEvent(0, 1)) // must not panic
	if fl.Cap() != 0 || fl.Len() != 0 || fl.Seq() != 0 {
		t.Fatal("nil flight reports non-zero state")
	}
	if fl.Snapshot(8) != nil || fl.SnapshotFlow(1, 8) != nil {
		t.Fatal("nil flight returned events")
	}
	if got, next := fl.Since(7, nil); got != nil || next != 7 {
		t.Fatal("nil flight Since changed state")
	}
}

func TestNewFlightRejectsNonPositiveCapacity(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewFlight(0) did not panic")
		}
	}()
	NewFlight(0)
}

// TestFlightRecordAllocs pins the always-on recording path at zero
// allocations: the ring slot copy must never escape to the heap.
func TestFlightRecordAllocs(t *testing.T) {
	fl := NewFlight(64)
	ev := flightEvent(1, 7)
	if allocs := testing.AllocsPerRun(1000, func() { fl.Record(ev) }); allocs != 0 {
		t.Fatalf("Flight.Record allocates %.1f/op, want 0", allocs)
	}
}
