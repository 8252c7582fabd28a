package trace

import (
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// journey appends a packet's journey: enqueue at sw/port at t, tx at t+d.
func journey(evs []Event, flow, seq uint32, sw, port, queue int, at, residence sim.Time) []Event {
	return append(evs,
		Event{At: at, Kind: KindEnqueue, Switch: sw, Port: port, Queue: queue, FlowID: flow, Seq: seq},
		Event{At: at + residence, Kind: KindTxStart, Switch: sw, Port: port, Queue: queue, FlowID: flow, Seq: seq})
}

func TestResidences(t *testing.T) {
	var evs []Event
	evs = journey(evs, 1, 0, 0, 1, 7, 0, 10*sim.Microsecond)
	evs = journey(evs, 1, 0, 1, 0, 7, 20*sim.Microsecond, 30*sim.Microsecond)
	evs = journey(evs, 2, 0, 0, 1, 7, 5*sim.Microsecond, 20*sim.Microsecond)

	res := Residences(evs)
	if len(res) != 2 {
		t.Fatalf("cells = %d, want 2", len(res))
	}
	// Worst max first: sw1 (30µs) then sw0 (20µs).
	if res[0].Switch != 1 || res[0].Max != 30*sim.Microsecond {
		t.Fatalf("worst = %+v", res[0])
	}
	sw0 := res[1]
	if sw0.Count != 2 || sw0.Mean() != 15*sim.Microsecond || sw0.Max != 20*sim.Microsecond {
		t.Fatalf("sw0 = %+v", sw0)
	}
	if !strings.Contains(sw0.String(), "sw0.p1 q7") {
		t.Fatalf("format: %s", sw0.String())
	}
}

func TestResidencesIgnoresDrops(t *testing.T) {
	evs := []Event{
		{At: 0, Kind: KindEnqueue, Switch: 0, Port: 1, Queue: 7, FlowID: 1, Seq: 0},
		{At: 5, Kind: KindDrop, Switch: 0, Port: 1, Queue: 7, FlowID: 1, Seq: 0},
	}
	if res := Residences(evs); len(res) != 0 {
		t.Fatalf("dropped packet produced residences: %v", res)
	}
}

func TestResidencesMultiHopPairing(t *testing.T) {
	// One packet crossing two switches: each enqueue pairs with its own
	// switch's tx, not the downstream one.
	evs := journey(nil, 1, 0, 0, 0, 7, 0, 10)
	evs = journey(evs, 1, 0, 1, 0, 7, 100, 40)
	res := Residences(evs)
	if len(res) != 2 {
		t.Fatalf("cells = %d", len(res))
	}
	for _, c := range res {
		switch c.Switch {
		case 0:
			if c.Max != 10 {
				t.Fatalf("sw0 residence %v", c.Max)
			}
		case 1:
			if c.Max != 40 {
				t.Fatalf("sw1 residence %v", c.Max)
			}
		}
	}
}

// TestResidencesTieOrder: cells tied on Max come out by switch, port
// and then queue, never in map order. Two queues of one port tie here;
// each run of the loop builds the aggregation map afresh.
func TestResidencesTieOrder(t *testing.T) {
	evs := journey(nil, 1, 0, 0, 2, 7, 0, 64*sim.Microsecond)
	evs = journey(evs, 2, 0, 0, 2, 6, 0, 64*sim.Microsecond)
	evs = journey(evs, 3, 0, 0, 1, 5, 0, 64*sim.Microsecond)
	for i := 0; i < 50; i++ {
		res := Residences(evs)
		if len(res) != 3 || res[0].Port != 1 || res[1].Queue != 6 || res[2].Queue != 7 {
			t.Fatalf("run %d: tied cells in order %v, want sw0.p1 q5, sw0.p2 q6, sw0.p2 q7", i, res)
		}
	}
}

func TestTopResidences(t *testing.T) {
	var evs []Event
	for i := 0; i < 5; i++ {
		evs = journey(evs, uint32(i+1), 0, i, 0, 7, 0, sim.Time(i+1)*sim.Microsecond)
	}
	top := TopResidences(evs, 2)
	if len(top) != 2 {
		t.Fatalf("top = %d", len(top))
	}
	if top[0].Switch != 4 || top[1].Switch != 3 {
		t.Fatalf("ordering wrong: %v", top)
	}
	if TopResidences(nil, 3) != nil {
		t.Fatal("no events produced results")
	}
}
