// Ring-industrial reproduces the paper's Fig. 6 demo in software: six
// customized TSN switches in a unidirectional ring, TSNNic testers
// injecting 1024 periodic TS flows plus rate-constrained and
// best-effort background traffic, gPTP synchronizing every switch
// clock, and the analyzer reporting per-class latency, jitter and loss.
//
// Run: go run ./examples/ring-industrial
package main

import (
	"fmt"
	"log"

	"github.com/tsnbuilder/tsnbuilder/testbed"
	"github.com/tsnbuilder/tsnbuilder/tsnbuilder"
)

func main() {
	topo := tsnbuilder.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h) // TS end devices
		topo.AttachHost(200+h, h) // background injectors
	}

	// 1024 TS flows traversing three switches each; per-flow VLANs keep
	// the classification entries distinct.
	specs := tsnbuilder.GenerateTS(tsnbuilder.TSParams{
		Count:    1024,
		Period:   10 * tsnbuilder.Millisecond,
		WireSize: 64,
		VID:      1,
		Hosts: func(i int) (int, int) {
			src := i % 6
			return 100 + src, 100 + (src+2)%6
		},
		Seed: 7,
	})
	for i, s := range specs {
		s.VID = uint16(1 + i%4000)
	}
	// Background: 200 Mbps RC + 200 Mbps BE from three injectors.
	id := uint32(100_000)
	for src := 0; src < 3; src++ {
		specs = append(specs,
			tsnbuilder.Background(id, tsnbuilder.ClassRC, 200+src, 100+(src+2)%6,
				uint16(3000+src), 200*tsnbuilder.Mbps))
		id++
		specs = append(specs,
			tsnbuilder.Background(id, tsnbuilder.ClassBE, 200+src, 100+(src+2)%6,
				uint16(3200+src), 200*tsnbuilder.Mbps))
		id++
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

	net, err := testbed.Build(testbed.Options{
		Design:     design,
		Topo:       topo,
		Flows:      specs,
		EnableGPTP: true,
		Seed:       7,
	})
	if err != nil {
		log.Fatal(err)
	}

	// Two seconds of gPTP convergence, then 100 ms of traffic.
	fmt.Println("running 6-switch ring with gPTP and 400 Mbps background…")
	net.Run(2*tsnbuilder.Second, 100*tsnbuilder.Millisecond)

	for _, cls := range []tsnbuilder.Class{tsnbuilder.ClassTS, tsnbuilder.ClassRC, tsnbuilder.ClassBE} {
		s := net.Summary(cls)
		if s.Flows == 0 {
			continue
		}
		fmt.Printf("%-3s: %4d flows  sent %6d  lost %4d  mean %8.1fµs  jitter %6.2fµs  max %8.1fµs\n",
			cls, s.Flows, s.Sent, s.Lost, s.MeanLatency.Micros(), s.Jitter.Micros(), s.MaxLat.Micros())
	}
	ts := net.Summary(tsnbuilder.ClassTS)
	fmt.Printf("\nTS deadline misses: %d of %d\n", ts.DeadlineMisses, ts.Received)
	fmt.Printf("gPTP worst offset at end: %v (claim: < 50ns)\n", net.Domain.MaxAbsOffset())
	fmt.Printf("worst TS queue occupancy: %d (provisioned depth %d)\n",
		net.MaxQueueHighWater(), der.Config.QueueDepth)
}
