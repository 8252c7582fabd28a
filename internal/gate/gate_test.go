package gate

import (
	"testing"
	"testing/quick"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

func TestMask(t *testing.T) {
	var m Mask
	if m.Open(3) {
		t.Fatal("empty mask open")
	}
	m = m.With(3)
	if !m.Open(3) || m.Open(4) {
		t.Fatal("With(3) wrong")
	}
	for q := 0; q < 16; q++ {
		if !AllOpen.Open(q) {
			t.Fatalf("AllOpen closed for %d", q)
		}
	}
}

func TestGCLRotation(t *testing.T) {
	slot := 65 * sim.Microsecond
	g := uniform(slot, Mask(0).With(7), Mask(0).With(6))
	if !g.StateAt(0).Open(7) || g.StateAt(0).Open(6) {
		t.Fatal("slot 0 state wrong")
	}
	if !g.StateAt(slot).Open(6) || g.StateAt(slot).Open(7) {
		t.Fatal("slot 1 state wrong")
	}
	// Wraps to entry 0 at the cycle boundary.
	if !g.StateAt(2 * slot).Open(7) {
		t.Fatal("cycle wrap wrong")
	}
	// Mid-slot stays on the same entry.
	if !g.StateAt(slot / 2).Open(7) {
		t.Fatal("mid-slot state wrong")
	}
}

func TestGCLBase(t *testing.T) {
	slot := 10 * sim.Microsecond
	g := uniform(slot, 1, 2).WithBase(3 * sim.Microsecond)
	if g.StateAt(3*sim.Microsecond) != 1 {
		t.Fatal("base not honored")
	}
	if g.StateAt(13*sim.Microsecond) != 2 {
		t.Fatal("post-base slot wrong")
	}
	// Before the base, the schedule extends cyclically backwards.
	if g.StateAt(0) != 2 {
		t.Fatalf("pre-base state = %v, want entry 1", g.StateAt(0))
	}
}

func TestGCLBoundaries(t *testing.T) {
	slot := 10 * sim.Microsecond
	g := uniform(slot, 1, 2, 3)
	if g.NextBoundary(0) != slot {
		t.Fatalf("NextBoundary(0) = %v", g.NextBoundary(0))
	}
	if g.NextBoundary(slot) != 2*slot {
		t.Fatal("boundary at exact slot edge must be the next edge")
	}
	if g.TimeToBoundary(slot-1) != 1 {
		t.Fatalf("TimeToBoundary = %v", g.TimeToBoundary(slot-1))
	}
	if g.SlotIndex(25*sim.Microsecond) != 2 {
		t.Fatalf("SlotIndex = %d", g.SlotIndex(25*sim.Microsecond))
	}
	if g.Cycle() != 3*slot {
		t.Fatalf("Cycle = %v", g.Cycle())
	}
}

func TestGCLPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero slot did not panic")
			}
		}()
		uniform(0, 1)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty GCL did not panic")
			}
		}()
		NewGCL(nil)
	}()
}

func TestAlwaysOpen(t *testing.T) {
	g := AlwaysOpen(65 * sim.Microsecond)
	if g.Size() != 1 {
		t.Fatalf("Size = %d", g.Size())
	}
	for _, at := range []sim.Time{0, 1, 1000, 999 * sim.Millisecond} {
		if g.StateAt(at) != AllOpen {
			t.Fatal("AlwaysOpen gated something")
		}
	}
}

func TestCQFComplementary(t *testing.T) {
	slot := 65 * sim.Microsecond
	in, out := CQF(slot, 7, 6)
	if in.Size() != 2 || out.Size() != 2 {
		t.Fatalf("CQF GCL sizes = %d,%d, want 2,2", in.Size(), out.Size())
	}
	for slotIdx := 0; slotIdx < 4; slotIdx++ {
		at := sim.Time(slotIdx) * slot
		inState, outState := in.StateAt(at), out.StateAt(at)
		// Exactly one TS queue enqueues while the other drains.
		if inState.Open(7) == inState.Open(6) {
			t.Fatal("in-gates not exclusive")
		}
		if outState.Open(7) == outState.Open(6) {
			t.Fatal("out-gates not exclusive")
		}
		if inState.Open(7) == outState.Open(7) {
			t.Fatal("queue 7 enqueues and drains in the same slot")
		}
		// Non-TS queues are never gated.
		for q := 0; q <= 5; q++ {
			if !inState.Open(q) || !outState.Open(q) {
				t.Fatalf("non-TS queue %d gated", q)
			}
		}
	}
}

func TestCQFSameQueuePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("CQF with same queues did not panic")
		}
	}()
	CQF(sim.Microsecond, 7, 7)
}

// Property: for any time, the CQF in- and out-gates of the two TS
// queues are exclusive and complementary, and the state is periodic
// with the cycle.
func TestCQFInvariantProperty(t *testing.T) {
	slot := 65 * sim.Microsecond
	in, out := CQF(slot, 7, 6)
	prop := func(raw uint32) bool {
		at := sim.Time(raw)
		i, o := in.StateAt(at), out.StateAt(at)
		if i.Open(7) == i.Open(6) || o.Open(7) == o.Open(6) {
			return false
		}
		if i.Open(7) != o.Open(6) {
			return false
		}
		cyc := in.Cycle()
		return in.StateAt(at+cyc) == i && out.StateAt(at+cyc) == o
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: NextBoundary is always strictly in the future and at most
// one slot away, and lies on a slot edge.
func TestBoundaryProperty(t *testing.T) {
	slot := 13 * sim.Microsecond
	prop := func(raw uint32, baseRaw uint16) bool {
		g := uniform(slot, 1, 2, 3, 4, 5).WithBase(sim.Time(baseRaw))
		at := sim.Time(raw)
		nb := g.NextBoundary(at)
		if nb <= at || nb-at > slot {
			return false
		}
		return (nb-sim.Time(baseRaw))%slot == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
