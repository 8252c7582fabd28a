// Star-production-cell models an IEC 60802-style production cell: a
// core switch fans out to three cell switches, each serving a machine
// controller. The example customizes the switches for the cell's exact
// flow set, verifies the customized network delivers the same QoS as
// one built with commercial-profile resources, and prints the memory
// both configurations cost.
//
// Run: go run ./examples/star-production-cell
package main

import (
	"fmt"
	"log"

	"github.com/tsnbuilder/tsnbuilder/testbed"
	"github.com/tsnbuilder/tsnbuilder/tsnbuilder"
)

// buildNet assembles the star network with the given configuration.
func buildNet(cfg tsnbuilder.Config, seed uint64) (*testbed.Net, error) {
	topo := tsnbuilder.Star(3)
	// Controllers on the three cell switches (1..3).
	for c := 1; c <= 3; c++ {
		topo.AttachHost(100+c, c)
	}
	// Cross-cell control loops: every controller talks to the next,
	// 512 flows total, 128 B frames every 2 ms.
	specs := tsnbuilder.GenerateTS(tsnbuilder.TSParams{
		Count:    512,
		Period:   2 * tsnbuilder.Millisecond,
		WireSize: 128,
		VID:      1,
		Hosts: func(i int) (int, int) {
			src := 1 + i%3
			return 100 + src, 100 + (src%3 + 1)
		},
		Seed: seed,
	})
	for i, s := range specs {
		s.VID = uint16(1 + i)
	}
	if err := tsnbuilder.BindPaths(topo, specs); err != nil {
		return nil, err
	}
	der, err := tsnbuilder.DeriveConfig(tsnbuilder.Scenario{Topo: topo, Flows: specs})
	if err != nil {
		return nil, err
	}
	der.Plan.Apply(specs)
	design, err := der.Design(nil) // the derived customization
	if cfg.PortNum != 0 {
		design, err = tsnbuilder.BuilderFor(cfg, nil).Build()
	}
	if err != nil {
		return nil, err
	}
	return testbed.Build(testbed.Options{Design: design, Topo: topo, Flows: specs, Seed: seed})
}

func main() {
	run := func(label string, cfg tsnbuilder.Config) tsnbuilder.Time {
		net, err := buildNet(cfg, 21)
		if err != nil {
			log.Fatal(err)
		}
		net.Run(0, 100*tsnbuilder.Millisecond)
		s := net.Summary(tsnbuilder.ClassTS)
		fmt.Printf("%-22s mean %8.1fµs  jitter %6.2fµs  loss %.2f%%  misses %d\n",
			label, s.MeanLatency.Micros(), s.Jitter.Micros(), 100*s.LossRate, s.DeadlineMisses)
		return s.MeanLatency
	}

	fmt.Println("production cell, 512 control flows @ 2ms, 128B:")
	customized := run("customized resources:", tsnbuilder.Config{})
	commercial := run("commercial resources:", tsnbuilder.CommercialProfile())
	diff := customized - commercial
	if diff < 0 {
		diff = -diff
	}
	fmt.Printf("latency difference: %v (same QoS)\n\n", diff)

	// Price both designs.
	topo := tsnbuilder.Star(3)
	for c := 1; c <= 3; c++ {
		topo.AttachHost(100+c, c)
	}
	specs := tsnbuilder.GenerateTS(tsnbuilder.TSParams{
		Count: 512, Period: 2 * tsnbuilder.Millisecond, WireSize: 128, VID: 1,
		Hosts: func(i int) (int, int) { src := 1 + i%3; return 100 + src, 100 + (src%3 + 1) },
		Seed:  21,
	})
	if err := tsnbuilder.BindPaths(topo, specs); err != nil {
		log.Fatal(err)
	}
	der, err := tsnbuilder.DeriveConfig(tsnbuilder.Scenario{Topo: topo, Flows: specs})
	if err != nil {
		log.Fatal(err)
	}
	custom, _ := der.Design(nil)
	base, _ := tsnbuilder.BuilderFor(tsnbuilder.CommercialProfile(), nil).Build()
	fmt.Printf("customized BRAM: %7.0fKb\ncommercial BRAM: %7.0fKb\nsaved: %.2f%%\n",
		custom.Report.TotalKb(), base.Report.TotalKb(),
		100*custom.Report.ReductionVs(base.Report))
}
