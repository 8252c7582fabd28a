package tsnswitch

import (
	"fmt"
	"math/rand"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/gate"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// listGate is a port gate without a cursor: every answer is looked up
// on the bare list, and the rollovers are counted as portGate counts
// them — the oracle the cursor must match.
type listGate struct {
	g      *gate.GCL
	rolls  int64
	seen   int64
	seenAt sim.Time
}

func (r *listGate) install(g *gate.GCL) { r.g, r.seen = g, g.SlotIndex(max(r.seenAt, g.Base())) }

func (r *listGate) observe(t sim.Time) gate.Mask {
	if s := r.g.SlotIndex(t); s > r.seen {
		r.rolls += s - r.seen
	}
	r.seen, r.seenAt = r.g.SlotIndex(t), t
	return r.g.StateAt(t)
}

// cursorLists are the lists a cursor script installs: CQF pairs, TAS
// lists of unequal entries, and the one-entry ungated list.
func cursorLists() []*gate.GCL {
	in, out := gate.CQF(65*sim.Microsecond, 6, 7)
	tas := gate.NewGCL([]gate.Entry{
		{Mask: 0x01, Duration: 10 * sim.Microsecond},
		{Mask: 0xc0, Duration: 37 * sim.Microsecond},
		{Mask: 0x3f, Duration: 3 * sim.Microsecond},
		{Mask: 0xff, Duration: 1},
	})
	short := gate.NewGCL([]gate.Entry{{Mask: 0x80, Duration: 7}, {Mask: 0x7f, Duration: 2}, {Mask: 0x40, Duration: 1_000}})
	return []*gate.GCL{in, out, in.WithBase(12_345), tas, tas.WithBase(-40 * sim.Microsecond), short, gate.AlwaysOpen(65 * sim.Microsecond)}
}

// checkCursor drives one portGate and the list oracle through script,
// two bytes a step: an operation and its argument. After every step the
// mask, TimeToBoundary and the rollover count must agree.
func checkCursor(script []byte) error {
	lists := cursorLists()
	reg := metrics.New()
	d := portGate{roll: reg.Counters("test_rollovers_total", "rollovers").With()}
	var ref listGate
	d.install(lists[0])
	ref.install(lists[0])
	t := sim.Time(0)
	for i := 0; i+1 < len(script); i += 2 {
		arg := sim.Time(script[i+1])
		cycle := ref.g.Cycle()
		observe := true
		switch op := script[i] % 8; op {
		case 0: // a step inside the current entry, mostly
			t += 1 + arg*arg
		case 1: // exactly onto the next boundary
			t += ref.g.TimeToBoundary(t)
		case 2: // a jump of many cycles
			t += (1+arg)*cycle + arg
		case 3: // a clock step backwards
			t -= 1 + arg*cycle/16
		case 4: // before the list's base
			t = ref.g.Base() - 1 - arg*cycle/8
		case 5: // a list with another base, mid-sequence
			g := lists[int(arg)%len(lists)].WithBase(t - arg*997)
			d.install(g)
			ref.install(g)
		case 6: // the boundary distance alone moves the cursor, not the count
			t += arg * cycle / 4
			observe = false
		case 7: // one nanosecond before the next boundary
			t += ref.g.TimeToBoundary(t) - 1
		}
		if observe {
			if got, want := d.observe(t), ref.observe(t); got != want {
				return fmt.Errorf("step %d (op %d) at %d: mask %#x, list says %#x", i/2, script[i]%8, t, got, want)
			}
		}
		if got, want := d.TimeToBoundary(t), ref.g.TimeToBoundary(t); got != want {
			return fmt.Errorf("step %d (op %d) at %d: TimeToBoundary %d, list says %d", i/2, script[i]%8, t, got, want)
		}
		if got, want := reg.CounterValue("test_rollovers_total"), uint64(ref.rolls); got != want {
			return fmt.Errorf("step %d (op %d) at %d: %d rollovers, list counts %d", i/2, script[i]%8, t, got, want)
		}
	}
	return nil
}

// TestPortGateCursorMatchesList holds the per-port gate cursor to the
// bare list on seeded local-time sequences: steps inside an entry,
// landings on and just short of a boundary, jumps of many cycles,
// clock steps backwards, times before the base, boundary queries that
// move the cursor without counting, and installs of lists with another
// base — CQF pairs, TAS lists of unequal entries and the ungated list.
func TestPortGateCursorMatchesList(t *testing.T) {
	for seed := int64(1); seed <= 64; seed++ {
		script := make([]byte, 4_000)
		rand.New(rand.NewSource(seed)).Read(script)
		if err := checkCursor(script); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
	}
}

// FuzzPortGateCursorMatchesList drives checkCursor from fuzzed scripts.
func FuzzPortGateCursorMatchesList(f *testing.F) {
	f.Add([]byte{0, 3, 1, 0, 1, 0, 3, 200, 0, 1, 2, 9, 7, 0, 0, 0})
	f.Add([]byte{5, 3, 4, 2, 0, 0, 1, 0, 6, 9, 1, 0, 5, 4, 7, 0, 1, 0})
	f.Add([]byte{6, 255, 6, 255, 0, 0, 3, 255, 3, 255, 0, 1, 2, 0})
	f.Fuzz(func(t *testing.T, script []byte) {
		if err := checkCursor(script); err != nil {
			t.Fatal(err)
		}
	})
}
