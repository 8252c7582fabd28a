// Tas-lowlatency demonstrates the Gate Ctrl template beyond CQF: the
// same ring network runs first with the paper's 2-entry CQF gate
// tables, then with a synthesized 802.1Qbv Time-Aware Shaper schedule.
// TAS removes the per-hop slot quantization — latency drops from
// hops×65 µs to a few microseconds — while the gate tables grow with
// the number of scheduled windows, which is exactly the resource knob
// the set_gate_tbl customization API exposes.
//
// Run: go run ./examples/tas-lowlatency
package main

import (
	"fmt"
	"log"

	"github.com/tsnbuilder/tsnbuilder/internal/tas"
	"github.com/tsnbuilder/tsnbuilder/testbed"
	"github.com/tsnbuilder/tsnbuilder/tsnbuilder"
)

func workload() (*tsnbuilder.Topology, []*tsnbuilder.FlowSpec) {
	topo := tsnbuilder.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h)
	}
	specs := tsnbuilder.GenerateTS(tsnbuilder.TSParams{
		Count:    128,
		Period:   10 * tsnbuilder.Millisecond,
		WireSize: 64,
		VID:      1,
		Hosts: func(i int) (int, int) {
			src := i % 6
			return 100 + src, 100 + (src+2)%6
		},
		Seed: 9,
	})
	for i, s := range specs {
		s.VID = uint16(1 + i)
	}
	if err := tsnbuilder.BindPaths(topo, specs); err != nil {
		log.Fatal(err)
	}
	return topo, specs
}

func main() {
	// --- CQF run ---
	topo, specs := workload()
	der, err := tsnbuilder.DeriveConfig(tsnbuilder.Scenario{Topo: topo, Flows: specs})
	if err != nil {
		log.Fatal(err)
	}
	der.Plan.Apply(specs)
	design, err := der.Design(nil)
	if err != nil {
		log.Fatal(err)
	}
	net, err := testbed.Build(testbed.Options{Design: design, Topo: topo, Flows: specs})
	if err != nil {
		log.Fatal(err)
	}
	net.Run(0, 100*tsnbuilder.Millisecond)
	cqf := net.Summary(tsnbuilder.ClassTS)
	fmt.Printf("CQF (gate_size=2):    mean %8.1fµs  jitter %6.2fµs  p99 %8.1fµs  loss %.2f%%\n",
		cqf.MeanLatency.Micros(), cqf.Jitter.Micros(), cqf.P99.Micros(), 100*cqf.LossRate)

	// --- TAS run: same workload, synthesized windows ---
	topo2, specs2 := workload()
	sch, err := tas.Synthesize(specs2, topo2, tas.Options{MaxFrameBytes: 64})
	if err != nil {
		log.Fatal(err)
	}
	der2, err := tsnbuilder.DeriveConfig(tsnbuilder.Scenario{Topo: topo2, Flows: specs2})
	if err != nil {
		log.Fatal(err)
	}
	cfg := der2.Config
	if sch.MaxGateEntries > cfg.GateSize {
		cfg.GateSize = sch.MaxGateEntries
	}
	design2, err := tsnbuilder.BuilderFor(cfg, nil).Build()
	if err != nil {
		log.Fatal(err)
	}
	net2, err := testbed.Build(testbed.Options{Design: design2, Topo: topo2, Flows: specs2})
	if err != nil {
		log.Fatal(err)
	}
	if err := net2.InstallTAS(sch); err != nil {
		log.Fatal(err)
	}
	sch.Apply(specs2)
	net2.Run(0, 100*tsnbuilder.Millisecond)
	tasSum := net2.Summary(tsnbuilder.ClassTS)
	fmt.Printf("TAS (gate_size=%d):  mean %8.1fµs  jitter %6.2fµs  p99 %8.1fµs  loss %.2f%%\n",
		sch.MaxGateEntries,
		tasSum.MeanLatency.Micros(), tasSum.Jitter.Micros(), tasSum.P99.Micros(), 100*tasSum.LossRate)

	wc, err := sch.WorstCaseLatency(specs2[0], topo2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nTAS synthesized worst-case bound for flow %d: %v\n", specs2[0].ID, wc)
	fmt.Printf("speedup: %.0f× lower mean latency for %d× larger gate tables\n",
		float64(cqf.MeanLatency)/float64(tasSum.MeanLatency), sch.MaxGateEntries/2)
}
