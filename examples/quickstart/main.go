// Quickstart: customize a resource-efficient TSN switch for a 6-node
// ring carrying 1024 periodic time-sensitive flows, and compare its
// on-chip memory against the commercial (BCM53154-class) baseline.
//
// Run: go run ./examples/quickstart
package main

import (
	"fmt"
	"log"

	"github.com/tsnbuilder/tsnbuilder/tsnbuilder"
)

func main() {
	// 1. Describe the application scenario: a unidirectional ring of
	// six switches with one end device per switch.
	topo := tsnbuilder.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h)
	}

	// 1024 TS flows, 10 ms period, 64 B frames — the IEC 60802-style
	// production-line workload of the paper's evaluation.
	specs := tsnbuilder.GenerateTS(tsnbuilder.TSParams{
		Count:    1024,
		Period:   10 * tsnbuilder.Millisecond,
		WireSize: 64,
		VID:      1,
		Hosts: func(i int) (int, int) {
			src := i % 6
			return 100 + src, 100 + (src+2)%6
		},
		Seed: 42,
	})
	if err := tsnbuilder.BindPaths(topo, specs); err != nil {
		log.Fatal(err)
	}

	// 2. Derive the resource parameters from the scenario (§III.C):
	// tables sized to the flow count, CQF gate tables of two entries,
	// queue depth from Injection Time Planning.
	der, err := tsnbuilder.DeriveConfig(tsnbuilder.Scenario{Topo: topo, Flows: specs})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("ITP: worst queue occupancy %d → provisioned depth %d\n\n",
		der.Plan.MaxOccupancy, der.Config.QueueDepth)

	// 3. Push the parameters through the Table II customization APIs
	// and build the design for the FPGA platform.
	design, err := der.Design(tsnbuilder.FPGA{})
	if err != nil {
		log.Fatal(err)
	}

	// 4. Compare against the commercial switch profile.
	baseline, err := tsnbuilder.BuilderFor(tsnbuilder.CommercialProfile(), tsnbuilder.FPGA{}).Build()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print(design.Report.String())
	fmt.Println()
	fmt.Print(baseline.Report.String())
	fmt.Printf("\non-chip memory saved: %.2f%%\n", 100*design.Report.ReductionVs(baseline.Report))
}
