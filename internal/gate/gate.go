// Package gate implements the Gate Ctrl function template: the ingress
// and egress Gate Control Lists (GCLs) attached to each queue of each
// port (802.1Qbv). There is one list type; its depth is the gate_size
// argument of set_gate_tbl. CQF (802.1Qch), the paper's evaluation
// configuration, is the list of two equal entries — gate_size = 2 —
// a synthesized TAS schedule is a longer one with unequal durations,
// and an ungated port runs the one-entry list.
//
// A list is immutable once built, so one value may be installed on any
// number of ports and directions; whoever evaluates it (tsnswitch.Port)
// owns the rollover accounting.
package gate

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// Mask is a per-queue open/close bitmap; bit q set means queue q's gate
// is open.
type Mask uint16

// Open reports whether queue q's gate is open in m.
func (m Mask) Open(q int) bool { return m&(1<<uint(q)) != 0 }

// With returns m with queue q's gate opened.
func (m Mask) With(q int) Mask { return m | 1<<uint(q) }

// AllOpen is the mask with every gate open (ungated queues).
const AllOpen Mask = 0xffff

// Entry is one gate control list entry: a gate mask held for a
// duration, as 802.1Qbv's SetGateStates/TimeInterval pairs.
type Entry struct {
	Mask     Mask
	Duration sim.Time
}

// GCL is one gate control list: entries in effect one after the other,
// repeating with period Cycle() from local time Base().
type GCL struct {
	entries []Entry
	// starts[i] is the offset of entry i within the cycle.
	starts []sim.Time
	cycle  sim.Time
	base   sim.Time
}

// NewGCL builds a list aligned to local time 0. The entry count is the
// gate table size of the set_gate_tbl customization API; durations must
// be positive.
func NewGCL(entries []Entry) *GCL {
	if len(entries) == 0 {
		panic("gate: empty GCL")
	}
	g := &GCL{entries: append([]Entry(nil), entries...), starts: make([]sim.Time, len(entries))}
	for i, e := range entries {
		if e.Duration <= 0 {
			panic(fmt.Sprintf("gate: non-positive entry duration %v", e.Duration))
		}
		g.starts[i] = g.cycle
		g.cycle += e.Duration
	}
	return g
}

// AlwaysOpen returns the one-entry list that never gates any queue,
// for ports without time-aware shaping.
func AlwaysOpen(cycle sim.Time) *GCL {
	return NewGCL([]Entry{{Mask: AllOpen, Duration: cycle}})
}

// CQF builds the paper's static CQF configuration for one port: two TSN
// queues (queueA, queueB) enqueue and dequeue in a cyclic manner. In
// even slots queueA accepts arrivals while queueB drains; odd slots
// swap roles. Non-TS queues (all others) are always open in both
// directions. Each list has two entries of one slot each, matching the
// paper's gate table parameter gate_size = 2.
func CQF(slot sim.Time, queueA, queueB int) (in, out *GCL) {
	if queueA == queueB {
		panic("gate: CQF queues must differ")
	}
	others := AllOpen &^ (1<<uint(queueA) | 1<<uint(queueB))
	a, b := others.With(queueA), others.With(queueB)
	return NewGCL([]Entry{{a, slot}, {b, slot}}), // in: A enqueues, then B
		NewGCL([]Entry{{b, slot}, {a, slot}}) // out: B drains, then A
}

// WithBase returns the same list with its cycle start aligned to local
// time base.
func (g *GCL) WithBase(base sim.Time) *GCL {
	c := *g
	c.base = base
	return &c
}

// Base returns the local time entry 0 starts at.
func (g *GCL) Base() sim.Time { return g.base }

// Size returns the number of entries (the gate table depth).
func (g *GCL) Size() int { return len(g.entries) }

// Cycle returns the schedule period.
func (g *GCL) Cycle() sim.Time { return g.cycle }

// IsCQF reports whether the list has CQF's shape: two entries of equal
// duration.
func (g *GCL) IsCQF() bool {
	return len(g.entries) == 2 && g.entries[0].Duration == g.entries[1].Duration
}

// Interval is one occurrence of a list entry: the entry numbered Slot
// from the base holds Mask over local time [From, To).
type Interval struct {
	Slot     int64
	From, To sim.Time
	Mask     Mask
}

// IntervalAt returns the entry occurrence covering local time t, which
// answers every lookup below for each instant of it: the cycle number
// (floored: negative before the base), the phase within it, then the
// entry by binary search.
func (g *GCL) IntervalAt(t sim.Time) Interval {
	rel := t - g.base
	cycles := int64(rel / g.cycle)
	phase := rel - sim.Time(cycles)*g.cycle // one division, not two
	if phase < 0 {
		cycles, phase = cycles-1, phase+g.cycle
	}
	i, hi := 0, len(g.starts)-1
	for i < hi {
		if mid := (i + hi + 1) / 2; g.starts[mid] <= phase {
			i = mid
		} else {
			hi = mid - 1
		}
	}
	from := t - phase + g.starts[i]
	return Interval{Slot: cycles*int64(len(g.entries)) + int64(i), From: from,
		To: from + g.entries[i].Duration, Mask: g.entries[i].Mask}
}

// StateAt returns the gate mask in effect at local time t.
func (g *GCL) StateAt(t sim.Time) Mask { return g.IntervalAt(t).Mask }

// SlotIndex returns the absolute number of the entry containing local
// time t, counted from the base: 0 for entry 0 of the first cycle,
// negative before it. The difference between two instants is the
// number of rollovers between them.
func (g *GCL) SlotIndex(t sim.Time) int64 { return g.IntervalAt(t).Slot }

// NextBoundary returns the earliest entry boundary strictly after local
// time t.
func (g *GCL) NextBoundary(t sim.Time) sim.Time { return g.IntervalAt(t).To }

// TimeToBoundary returns how long after local time t the next entry
// boundary occurs; in (0, entry duration].
func (g *GCL) TimeToBoundary(t sim.Time) sim.Time { return g.IntervalAt(t).To - t }

// String renders the schedule compactly.
func (g *GCL) String() string {
	return fmt.Sprintf("GCL{entries=%d cycle=%v}", len(g.entries), g.cycle)
}

// EnqueueTarget is Gate Ctrl's ingress decision: given the in-gate mask
// in effect, the classified queue q and the CQF pair (a, b), it returns
// the queue the frame should join, or -1 if its gate is closed. A frame
// classified to either pair queue joins whichever of the two is open —
// CQF's redirection, with exactly one open per slot; for any other
// queue the mask decides admission directly.
func EnqueueTarget(state Mask, q, a, b int) int {
	if q == a || q == b {
		if state.Open(a) {
			return a
		}
		if state.Open(b) {
			return b
		}
		return -1
	}
	if !state.Open(q) {
		return -1
	}
	return q
}
