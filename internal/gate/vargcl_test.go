package gate

import (
	"testing"
	"testing/quick"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

func us(n int) sim.Time { return sim.Time(n) * sim.Microsecond }

func sampleVarGCL() *GCL {
	// 10 µs window for queue 7, 30 µs everything-but-7, 20 µs queue 6
	// only: cycle 60 µs.
	return NewGCL([]Entry{
		{Mask: Mask(0).With(7), Duration: us(10)},
		{Mask: AllOpen &^ (1 << 7), Duration: us(30)},
		{Mask: Mask(0).With(6), Duration: us(20)},
	})
}

func TestVarGCLStateAt(t *testing.T) {
	g := sampleVarGCL()
	cases := []struct {
		at   sim.Time
		open int
		shut int
	}{
		{0, 7, 6},
		{us(9), 7, 0},
		{us(10), 0, 7},
		{us(39), 0, 7},
		{us(40), 6, 7},
		{us(59), 6, 0},
		{us(60), 7, 6},  // wraps
		{us(125), 7, 6}, // phase 5 in the third cycle
	}
	for _, c := range cases {
		st := g.StateAt(c.at)
		if !st.Open(c.open) {
			t.Errorf("at %v queue %d closed", c.at, c.open)
		}
		if st.Open(c.shut) {
			t.Errorf("at %v queue %d open", c.at, c.shut)
		}
	}
}

func TestVarGCLBoundaries(t *testing.T) {
	g := sampleVarGCL()
	if g.Cycle() != us(60) {
		t.Fatalf("cycle = %v", g.Cycle())
	}
	if g.Size() != 3 {
		t.Fatalf("size = %d", g.Size())
	}
	if nb := g.NextBoundary(0); nb != us(10) {
		t.Fatalf("NextBoundary(0) = %v", nb)
	}
	if nb := g.NextBoundary(us(10)); nb != us(40) {
		t.Fatalf("NextBoundary(10µs) = %v", nb)
	}
	if nb := g.NextBoundary(us(59)); nb != us(60) {
		t.Fatalf("NextBoundary(59µs) = %v", nb)
	}
	if d := g.TimeToBoundary(us(5)); d != us(5) {
		t.Fatalf("TimeToBoundary = %v", d)
	}
}

func TestVarGCLBase(t *testing.T) {
	g := sampleVarGCL().WithBase(us(7))
	if !g.StateAt(us(7)).Open(7) {
		t.Fatal("base not applied")
	}
	if !g.StateAt(us(6)).Open(6) {
		t.Fatal("pre-base wrap wrong") // 6µs before base = end of cycle
	}
}

func TestVarGCLPanics(t *testing.T) {
	func() {
		defer func() {
			if recover() == nil {
				t.Error("empty VarGCL did not panic")
			}
		}()
		NewGCL(nil)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero duration did not panic")
			}
		}()
		NewGCL([]Entry{{Mask: 1, Duration: 0}})
	}()
}

// Property: NextBoundary is strictly future, lands on an entry edge,
// and StateAt is cycle-periodic.
func TestVarGCLProperty(t *testing.T) {
	g := sampleVarGCL()
	prop := func(raw uint32) bool {
		at := sim.Time(raw)
		nb := g.NextBoundary(at)
		if nb <= at || nb-at > g.Cycle() {
			return false
		}
		if g.StateAt(at) != g.StateAt(at+g.Cycle()) {
			return false
		}
		// Immediately after the boundary the mask differs from just
		// before it (entries with equal adjacent masks are legal in
		// general but not in this sample).
		return g.StateAt(nb) != g.StateAt(nb-1)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestEnqueueTargetCQF(t *testing.T) {
	slot := us(65)
	in, _ := CQF(slot, 7, 6)
	if got := EnqueueTarget(in.StateAt(0), 7, 7, 6); got != 7 {
		t.Fatalf("slot 0 target = %d", got)
	}
	if got := EnqueueTarget(in.StateAt(slot), 7, 7, 6); got != 6 {
		t.Fatalf("slot 1 target = %d", got)
	}
	// The pair alternates whichever member the frame was classified to,
	// and wraps at the cycle.
	if got := EnqueueTarget(in.StateAt(slot), 6, 7, 6); got != 6 {
		t.Fatalf("slot 1 target for queue 6 = %d", got)
	}
	if got := EnqueueTarget(in.StateAt(2*slot), 6, 7, 6); got != 7 {
		t.Fatalf("slot 2 should wrap to queue 7, got %d", got)
	}
	// Non-pair queue passes through when open.
	if got := EnqueueTarget(in.StateAt(0), 3, 7, 6); got != 3 {
		t.Fatalf("queue 3 target = %d", got)
	}
}

func TestEnqueueTargetClosed(t *testing.T) {
	// A schedule closing everything: pair members and others rejected.
	g := NewGCL([]Entry{{Mask: 0, Duration: us(10)}})
	if got := EnqueueTarget(g.StateAt(0), 7, 7, 6); got != -1 {
		t.Fatalf("closed pair target = %d", got)
	}
	if got := EnqueueTarget(g.StateAt(0), 3, 7, 6); got != -1 {
		t.Fatalf("closed queue 3 target = %d", got)
	}
}

func TestEnqueueTargetAlwaysOpen(t *testing.T) {
	g := NewGCL([]Entry{{Mask: AllOpen, Duration: us(10)}})
	// Both pair members open: prefer a.
	if got := EnqueueTarget(g.StateAt(0), 6, 7, 6); got != 7 {
		t.Fatalf("target = %d, want preference for a", got)
	}
}
