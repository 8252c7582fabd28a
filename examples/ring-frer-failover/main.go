// Ring-frer-failover demonstrates 802.1CB seamless redundancy (FRER)
// on a bidirectional ring: a talker on switch 0 replicates every TS
// frame onto two disjoint paths (clockwise through 1-2-3, counter-
// clockwise through 5-4-3), and the listener on switch 3 runs the
// sequence-recovery function that eliminates the duplicate copies.
// Halfway through the run a fault scenario hard-kills the trunk between
// switches 1 and 2 — the middle of the primary path.
//
// The same cut is replayed twice: with FRER the listener never misses a
// frame (the surviving member stream keeps delivering); without it,
// every frame sent after the cut dies at the downed link, each one
// attributed to the fault in the telemetry registry.
//
// Run: go run ./examples/ring-frer-failover
package main

import (
	"fmt"
	"log"

	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/testbed"
	"github.com/tsnbuilder/tsnbuilder/tsnbuilder"
)

func run(withFRER bool) {
	topo := tsnbuilder.RingBidir(6)
	topo.AttachHost(100, 0) // talker
	topo.AttachHost(101, 3) // listener

	specs := tsnbuilder.GenerateTS(tsnbuilder.TSParams{
		Count:    8,
		Period:   tsnbuilder.Millisecond,
		WireSize: 128,
		VID:      1,
		Hosts:    func(int) (int, int) { return 100, 101 },
		Seed:     7,
	})
	for i, s := range specs {
		s.VID = uint16(1 + i)
		if withFRER {
			s.FRER = true
			s.AltVID = uint16(1000 + i) // member stream rides its own VLAN
		}
	}
	if err := tsnbuilder.BindPaths(topo, specs); err != nil {
		log.Fatal(err)
	}

	der, err := tsnbuilder.DeriveConfig(tsnbuilder.Scenario{Topo: topo, Flows: specs})
	if err != nil {
		log.Fatal(err)
	}
	der.Plan.Apply(specs)
	design, err := der.Design(nil)
	if err != nil {
		log.Fatal(err)
	}

	// Cut the clockwise trunk between switches 1 and 2 at t = 50 ms and
	// never restore it.
	a, b := 1, 2
	scenario := &tsnbuilder.FaultScenario{Faults: []tsnbuilder.Fault{
		{AtUs: 50_000, Kind: faults.KindLinkDown, A: &a, B: &b},
	}}

	reg := metrics.New()
	net, err := testbed.Build(testbed.Options{
		Design:  design,
		Topo:    topo,
		Flows:   specs,
		Seed:    7,
		Metrics: reg,
		Faults:  scenario,
	})
	if err != nil {
		log.Fatal(err)
	}
	net.Run(0, 100*tsnbuilder.Millisecond)

	ts := net.Summary(tsnbuilder.ClassTS)
	mode := "without FRER"
	if withFRER {
		mode = "with FRER   "
	}
	fmt.Printf("%s: sent %4d  received %4d  lost %3d  duplicates eliminated %4d  max latency %7.1fµs\n",
		mode, ts.Sent, ts.Received, ts.Lost, ts.Duplicates, ts.MaxLat.Micros())
	if drops := reg.SumCounter("tsn_link_drops_total"); drops > 0 {
		fmt.Printf("              %d frames died at the downed link (all accounted)\n", drops)
	}
	if withFRER {
		for _, it := range design.Report.Items {
			if it.Name == "FRER Tbl" {
				fmt.Printf("              eighth resource class: %s (%s) = %d BRAM bits\n",
					it.Name, it.Params, it.Bits)
			}
		}
	}
}

func main() {
	fmt.Println("6-switch bidirectional ring, 8 TS flows 0→3, trunk 1-2 cut at 50 ms:")
	run(true)
	run(false)
	fmt.Println("\nFRER turns a hard link failure into zero-loss operation;")
	fmt.Println("without it the outage costs exactly the frames sent after the cut.")
}
