package gate

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// The reference: the fixed-slot list this package carried next to the
// variable-duration one until the two were merged. refGCL is the old
// GCL verbatim (only the type and constructor are renamed); the
// surviving list built from equal durations must agree with it
// everywhere — except SlotIndex before the base, where the reference
// is off by one on exact negative multiples of the slot
// (TestSlotIndexFloorsBeforeBase).
type refGCL struct {
	slot    sim.Time
	entries []Mask
	// base aligns slot 0; local gate time is measured from it.
	base sim.Time
	// roll, when bound, counts slot rollovers observed by StateAt;
	// lastSlot is the last slot index seen.
	roll     metrics.Counter
	lastSlot int64
}

func newRefGCL(slot sim.Time, entries []Mask) *refGCL {
	if slot <= 0 {
		panic("gate: non-positive slot size")
	}
	if len(entries) == 0 {
		panic("gate: empty GCL")
	}
	return &refGCL{slot: slot, entries: append([]Mask(nil), entries...)}
}

// Size returns the number of entries (the gate table depth).
func (g *refGCL) Size() int { return len(g.entries) }

// Cycle returns the full schedule period: slot × entries.
func (g *refGCL) Cycle() sim.Time { return g.slot * sim.Time(len(g.entries)) }

// SetBase aligns slot boundaries to local time base.
func (g *refGCL) SetBase(base sim.Time) { g.base = base }

// index returns the entry index in effect at local time t.
func (g *refGCL) index(t sim.Time) int {
	rel := t - g.base
	if rel < 0 {
		// Align negative times onto the cycle.
		rel = rel%g.Cycle() + g.Cycle()
	}
	return int(rel/g.slot) % len(g.entries)
}

// SetRolloverCounter binds a counter that tallies slot rollovers as
// the schedule is evaluated. Only forward progress counts: a clock
// step backwards re-anchors without decrementing.
func (g *refGCL) SetRolloverCounter(c metrics.Counter) { g.roll = c }

// observeRollover advances the rollover counter to slot s.
func (g *refGCL) observeRollover(s int64) {
	if s > g.lastSlot {
		g.roll.Add(uint64(s - g.lastSlot))
	}
	g.lastSlot = s
}

// StateAt returns the gate mask in effect at local time t.
func (g *refGCL) StateAt(t sim.Time) Mask {
	if g.roll.Active() {
		g.observeRollover(g.SlotIndex(t))
	}
	return g.entries[g.index(t)]
}

// SlotIndex returns the absolute slot number containing local time t.
func (g *refGCL) SlotIndex(t sim.Time) int64 {
	rel := t - g.base
	if rel < 0 {
		return int64(rel/g.slot) - 1
	}
	return int64(rel / g.slot)
}

// NextBoundary returns the earliest slot boundary strictly after local
// time t.
func (g *refGCL) NextBoundary(t sim.Time) sim.Time {
	rel := t - g.base
	n := rel / g.slot
	if rel < 0 && rel%g.slot != 0 {
		// Integer division truncates toward zero; floor it instead.
		n--
	}
	return g.base + (n+1)*g.slot
}

// TimeToBoundary returns how long after local time t the next slot
// boundary occurs; in (0, slot].
func (g *refGCL) TimeToBoundary(t sim.Time) sim.Time { return g.NextBoundary(t) - t }

// refEnqueueQueue is the old EnqueueQueue: which of the two CQF queues
// accepts arrivals at local time t under the in-GCL built by CQF.
func refEnqueueQueue(in *refGCL, t sim.Time, queueA, queueB int) int {
	if in.StateAt(t).Open(queueA) {
		return queueA
	}
	return queueB
}

// uniform builds the surviving list the way the reference was built:
// one entry of duration slot per mask.
func uniform(slot sim.Time, masks ...Mask) *GCL {
	entries := make([]Entry, len(masks))
	for i, m := range masks {
		entries[i] = Entry{Mask: m, Duration: slot}
	}
	return NewGCL(entries)
}

// checkAgainstReference compares the list built from equal durations
// with the reference at every instant of ats (any order, either side of
// the base), then replays the instants at or after the base in
// ascending order through the reference's rollover counter and checks
// the count is the SlotIndex distance.
func checkAgainstReference(slot sim.Time, masks []Mask, base sim.Time, ats []sim.Time) error {
	ref := newRefGCL(slot, masks)
	ref.SetBase(base)
	g := uniform(slot, masks...).WithBase(base)
	if g.Size() != ref.Size() || g.Cycle() != ref.Cycle() || g.Base() != base {
		return fmt.Errorf("size/cycle/base %d/%v/%v, reference %d/%v/%v",
			g.Size(), g.Cycle(), g.Base(), ref.Size(), ref.Cycle(), base)
	}
	for _, at := range ats {
		if got, want := g.StateAt(at), ref.StateAt(at); got != want {
			return fmt.Errorf("StateAt(%d) = %#x, reference %#x", at, got, want)
		}
		if got, want := g.NextBoundary(at), ref.NextBoundary(at); got != want {
			return fmt.Errorf("NextBoundary(%d) = %d, reference %d", at, got, want)
		}
		if got, want := g.TimeToBoundary(at), ref.TimeToBoundary(at); got != want {
			return fmt.Errorf("TimeToBoundary(%d) = %d, reference %d", at, got, want)
		}
		if at >= base {
			if got, want := g.SlotIndex(at), ref.SlotIndex(at); got != want {
				return fmt.Errorf("SlotIndex(%d) = %d, reference %d", at, got, want)
			}
		}
	}
	reg := metrics.New()
	ref.SetRolloverCounter(reg.Counters("rollovers", "").With())
	last := base
	for _, at := range ats {
		if at >= last {
			ref.StateAt(at)
			last = at
		}
	}
	if got, want := g.SlotIndex(last)-g.SlotIndex(base), int64(reg.CounterValue("rollovers")); got != want {
		return fmt.Errorf("rollovers base..%d = %d, reference counted %d", last, got, want)
	}
	return nil
}

// TestGCLMatchesReference: random slot sizes, 1–8 entries, bases and
// instants on both sides of the base, exact slot multiples included.
func TestGCLMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(19))
	for round := 0; round < 400; round++ {
		slot := sim.Time(1 + rng.Int63n(int64(200*sim.Microsecond)))
		masks := make([]Mask, 1+rng.Intn(8))
		for i := range masks {
			masks[i] = Mask(rng.Intn(1 << 16))
		}
		base := sim.Time(rng.Int63n(int64(sim.Millisecond))) - 500*sim.Microsecond
		ats := make([]sim.Time, 64)
		for i := range ats {
			ats[i] = base + sim.Time(rng.Int63n(int64(40*slot))) - 20*slot
			if i%4 == 0 {
				ats[i] = base + sim.Time(rng.Intn(40)-20)*slot // exactly on a boundary
			}
		}
		if err := checkAgainstReference(slot, masks, base, ats); err != nil {
			t.Fatalf("round %d (slot %d, %d entries, base %d): %v", round, slot, len(masks), base, err)
		}
	}
}

// TestCQFMatchesReference is the old TestCQFVarGCLEquivalence and
// TestEnqueueTargetEquivalence: CQF's two lists against the reference
// built from the same masks, and EnqueueTarget against the old
// EnqueueQueue for the pair queues.
func TestCQFMatchesReference(t *testing.T) {
	slot := 65 * sim.Microsecond
	in, out := CQF(slot, 7, 6)
	if !in.IsCQF() || !out.IsCQF() || AlwaysOpen(slot).IsCQF() {
		t.Fatal("IsCQF must hold for the CQF pair and not for the open list")
	}
	others := AllOpen &^ (1<<7 | 1<<6)
	refIn := newRefGCL(slot, []Mask{others.With(7), others.With(6)})
	refOut := newRefGCL(slot, []Mask{others.With(6), others.With(7)})
	rng := rand.New(rand.NewSource(7))
	for i := 0; i < 1000; i++ {
		at := sim.Time(rng.Uint32())
		if in.StateAt(at) != refIn.StateAt(at) || out.StateAt(at) != refOut.StateAt(at) {
			t.Fatalf("state differs at %d", at)
		}
		if in.NextBoundary(at) != refIn.NextBoundary(at) || out.TimeToBoundary(at) != refOut.TimeToBoundary(at) {
			t.Fatalf("boundary differs at %d", at)
		}
		for _, q := range []int{7, 6} {
			if got, want := EnqueueTarget(in.StateAt(at), q, 7, 6), refEnqueueQueue(refIn, at, 7, 6); got != want {
				t.Fatalf("EnqueueTarget(q=%d) at %d = %d, EnqueueQueue %d", q, at, got, want)
			}
		}
	}
	if in.Cycle() != refIn.Cycle() || in.Size() != refIn.Size() {
		t.Fatal("cycle/size mismatch")
	}
}

// TestSlotIndexFloorsBeforeBase pins the one place the merged list
// deliberately departs from the reference: before the base the index
// is the floor, also on exact negative multiples of the slot, where
// the reference's "truncate, then subtract one" lands one too low.
func TestSlotIndexFloorsBeforeBase(t *testing.T) {
	slot := 10 * sim.Microsecond
	g := uniform(slot, 1, 2, 3).WithBase(3 * slot)
	ref := newRefGCL(slot, []Mask{1, 2, 3})
	ref.SetBase(3 * slot)
	for _, c := range []struct {
		at   sim.Time
		want int64
	}{{3 * slot, 0}, {3*slot - 1, -1}, {2 * slot, -1}, {2*slot - 1, -2}, {slot, -2}, {0, -3}, {-slot, -4}, {-slot - 1, -5}} {
		if got := g.SlotIndex(c.at); got != c.want {
			t.Errorf("SlotIndex(%d) = %d, want %d", c.at, got, c.want)
		}
		if onBoundary := (c.at-3*slot)%slot == 0; c.at < 3*slot && onBoundary {
			if ref.SlotIndex(c.at) != c.want-1 {
				t.Errorf("reference SlotIndex(%d) = %d: the off-by-one this test documents is gone", c.at, ref.SlotIndex(c.at))
			}
		}
	}
}

// FuzzGCLMatchesReference drives checkAgainstReference from fuzzed
// bytes: slot, entry count, base, then (offset, on-boundary) pairs.
func FuzzGCLMatchesReference(f *testing.F) {
	f.Add(uint32(65_000), uint8(2), int32(0), []byte{0, 1, 2, 3, 250, 251, 252, 253})
	f.Add(uint32(1), uint8(8), int32(-7), []byte{9, 9, 9, 9})
	f.Add(uint32(13_000), uint8(5), int32(40_000), []byte{255, 0, 128, 7, 1, 1})
	f.Fuzz(func(t *testing.T, slotRaw uint32, n uint8, baseRaw int32, script []byte) {
		slot := sim.Time(slotRaw%1_000_000) + 1
		masks := make([]Mask, 1+int(n)%8)
		for i := range masks {
			masks[i] = Mask(uint32(i+1) * 0x9e37 >> (n % 5))
		}
		base := sim.Time(baseRaw)
		var ats []sim.Time
		for i := 0; i+1 < len(script) && len(ats) < 256; i += 2 {
			// First byte: signed slot offset from the base; second:
			// sub-slot position in 1/255ths, 0 = exactly on the boundary.
			at := base + sim.Time(int8(script[i]))*slot + slot*sim.Time(script[i+1])/255
			ats = append(ats, at)
		}
		if err := checkAgainstReference(slot, masks, base, ats); err != nil {
			t.Fatal(err)
		}
	})
}
