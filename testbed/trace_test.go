package testbed

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/internal/trace"
)

// TestCQFOneSlotPerHop validates the CQF principle packet by packet
// using the flight recorder's trace: a frame received in slot s must
// start transmission in slot s+1 at every switch (the second principle
// of §IV.A).
func TestCQFOneSlotPerHop(t *testing.T) {
	topo := topology.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h)
	}
	specs := flows.GenerateTS(flows.TSParams{
		Count: 36, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
		Hosts: func(i int) (int, int) { return 100 + i%6, 100 + (i+3)%6 },
		Seed:  3,
	})
	for i, s := range specs {
		s.VID = uint16(1 + i)
	}
	if err := core.BindPaths(topo, specs); err != nil {
		t.Fatal(err)
	}
	der, err := core.DeriveConfig(core.Scenario{Topo: topo, Flows: specs})
	if err != nil {
		t.Fatal(err)
	}
	der.Plan.Apply(specs)
	design, err := core.BuilderFor(der.Config, nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	net, err := Build(Options{
		Design: design, Topo: topo, Flows: specs,
		EnableTrace: true, Seed: 3,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0, 40*sim.Millisecond)

	if net.Summary(ethernet.ClassTS).Lost != 0 {
		t.Fatal("loss during trace run")
	}
	slot := der.Config.SlotSize
	slotOf := func(at sim.Time) int64 { return int64(at / slot) }

	checked := 0
	for _, spec := range specs {
		flow := net.Flight.SnapshotFlow(spec.ID, net.Flight.Cap())
		for seq := uint32(0); seq < 3; seq++ {
			var evs []trace.Event
			for _, ev := range flow {
				if ev.Seq == seq {
					evs = append(evs, ev)
				}
			}
			if len(evs) == 0 {
				continue
			}
			// Collect (enqueue, tx-start) pairs hop by hop.
			var enq, tx []trace.Event
			for _, ev := range evs {
				switch ev.Kind {
				case trace.KindEnqueue:
					enq = append(enq, ev)
				case trace.KindTxStart:
					tx = append(tx, ev)
				case trace.KindDrop:
					t.Fatalf("packet %d/%d dropped: %v", spec.ID, seq, ev)
				}
			}
			if len(enq) != len(spec.Path) || len(tx) != len(spec.Path) {
				t.Fatalf("packet %d/%d: %d enqueues, %d tx for %d hops",
					spec.ID, seq, len(enq), len(tx), len(spec.Path))
			}
			for h := range enq {
				// Second CQF principle: received in slot s → sent in
				// slot s+1.
				if got, want := slotOf(tx[h].At), slotOf(enq[h].At)+1; got != want {
					t.Fatalf("packet %d/%d hop %d: enq slot %d, tx slot %d",
						spec.ID, seq, h, slotOf(enq[h].At), got)
				}
				// First principle: sending and receiving slot of two
				// adjacent switches are the same (propagation ≪ slot).
				if h > 0 && slotOf(enq[h].At) != slotOf(tx[h-1].At) {
					t.Fatalf("packet %d/%d hop %d: received in slot %d but upstream sent in %d",
						spec.ID, seq, h, slotOf(enq[h].At), slotOf(tx[h-1].At))
				}
				checked++
			}
		}
	}
	if checked < 100 {
		t.Fatalf("only %d hop checks performed", checked)
	}
}

// TestTraceDisabledByDefault ensures the flight recorder keeps only
// what a dump reads unless a whole trace is requested, and that
// EnableTrace sizes that same recorder rather than adding one.
func TestTraceDisabledByDefault(t *testing.T) {
	net, specs := ringScenario(t, 10, 2, false)
	if c := net.Flight.Cap(); c != 1<<16 {
		t.Fatalf("default flight capacity %d, want %d", c, 1<<16)
	}
	topo := topology.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h)
	}
	traced := buildNet(t, topo, specs, Options{EnableTrace: true, Seed: 5})
	if c := traced.Flight.Cap(); c != 1<<20 {
		t.Fatalf("EnableTrace flight capacity %d, want %d", c, 1<<20)
	}
	for _, sw := range traced.Switches {
		if sw.Flight != traced.Flight {
			t.Fatal("a switch records somewhere other than Net.Flight")
		}
	}
}
