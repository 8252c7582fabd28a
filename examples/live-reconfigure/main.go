// Live-reconfigure demonstrates the paper's headline development-effort
// claim — "when the application scenario changes, users only need to
// regulate the related parameters and reuse these templates without
// reprogramming" — on a RUNNING switch network. A 6-switch ring carries
// 60 TS control flows; mid-run, a plant expansion doubles the workload:
//
//  1. the doubled scenario is re-derived (same templates, bigger
//     parameters), the customization-API calls that change are printed
//     and both designs priced, and the delta is applied as one
//     transaction that validates against live state, stages
//     per-resource operations, and commits atomically at a CQF cycle
//     boundary;
//  2. the 60 new flows are programmed into the grown tables and start
//     injecting — every TS frame of all 120 flows arrives (zero loss);
//  3. a mid-apply failure is then injected into a further transaction:
//     every already-applied operation is reverted and the observable
//     configuration is byte-for-byte the pre-transaction state;
//  4. finally an inapplicable candidate (a structural change) is
//     rejected at validation, before anything is touched.
//
// Run: go run ./examples/live-reconfigure
package main

import (
	"fmt"
	"log"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// genFlows produces n TS flows with ids/vids offset by base so two
// batches coexist in the classification tables.
func genFlows(n int, base uint32, seed uint64) []*flows.Spec {
	specs := flows.GenerateTS(flows.TSParams{
		Count: n, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
		Hosts: func(i int) (int, int) { return 100 + i%6, 100 + (i+2)%6 },
		Seed:  seed,
	})
	for i, s := range specs {
		s.ID = base + uint32(i)
		s.VID = uint16(base + uint32(i))
	}
	return specs
}

func main() {
	topo := topology.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h)
	}
	initial := genFlows(60, 1, 11)
	if err := core.BindPaths(topo, initial); err != nil {
		log.Fatal(err)
	}
	der, err := core.DeriveConfig(core.Scenario{Topo: topo, Flows: initial})
	if err != nil {
		log.Fatal(err)
	}
	der.Plan.Apply(initial)
	design, err := der.Design(nil)
	if err != nil {
		log.Fatal(err)
	}
	net, err := testbed.Build(testbed.Options{
		Design: design, Topo: topo, Flows: initial, Seed: 5,
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("phase 1: 60 TS control flows @ 10ms on a 6-switch ring")
	fmt.Println(der.Config.String())
	fmt.Printf("→ %.0fKb BRAM\n", design.Report.TotalKb())

	// Re-derive for the doubled plant. The new ITP plan carries
	// injection offsets for the incoming batch; the running flows keep
	// the offsets they were planned with.
	extra := genFlows(60, 1000, 13)
	if err := core.BindPaths(topo, extra); err != nil {
		log.Fatal(err)
	}
	all := append(append([]*flows.Spec{}, initial...), extra...)
	der2, err := core.DeriveConfig(core.Scenario{Topo: topo, Flows: all})
	if err != nil {
		log.Fatal(err)
	}
	der2.Plan.Apply(extra)
	design2, err := der2.Design(nil)
	if err != nil {
		log.Fatal(err)
	}

	fmt.Println("\nphase 2: plant expansion to 120 flows — parameters to regulate live:")
	for _, line := range core.DiffConfigs(der.Config, der2.Config) {
		fmt.Println("  " + line)
	}
	fmt.Printf("→ %.0fKb BRAM, memory delta %+.0fKb\n",
		design2.Report.TotalKb(), design2.Report.TotalKb()-design.Report.TotalKb())

	var grow, failed *reconfig.Txn
	net.Engine.At(20*sim.Millisecond, "grow", func(*sim.Engine) {
		if grow, err = net.Reconfigure(der2.Config); err != nil {
			log.Fatal(err)
		}
	})
	net.Engine.At(40*sim.Millisecond, "add-flows", func(*sim.Engine) {
		if grow.State() != reconfig.StateCommitted {
			log.Fatalf("grow transaction: %v (%v)", grow.State(), grow.Err())
		}
		if err := net.AddFlows(extra, 45*sim.Millisecond); err != nil {
			log.Fatal(err)
		}
	})
	// Phase 3: a further grow attempt dies mid-apply (injected fault on
	// its second staged operation, on every attempt its retries make)
	// and must roll back completely.
	net.Engine.At(80*sim.Millisecond, "doomed-grow", func(*sim.Engine) {
		net.Reconfig.Arm(1, reconfig.Retries+1, false)
		doomed := der2.Config
		doomed.UnicastSize *= 2
		doomed.MeterSize *= 2
		doomed.BufferNum *= 2
		if failed, err = net.Reconfigure(doomed); err != nil {
			log.Fatal(err)
		}
	})

	net.Run(0, 120*sim.Millisecond)

	fmt.Printf("\ncommitted at %v — a CQF cycle boundary (%d staged ops)\n",
		grow.CommitTime(), len(grow.Ops()))
	ts := net.Summary(ethernet.ClassTS)
	fmt.Printf("all flows: sent=%d received=%d lost=%d deadline-misses=%d\n",
		ts.Sent, ts.Received, ts.Lost, ts.DeadlineMisses)
	if ts.Lost != 0 {
		log.Fatal("TS frames were lost across the live reconfiguration")
	}

	fmt.Printf("\nphase 3: injected mid-apply failure → %v\n  %v\n", failed.State(), failed.Err())
	if d := core.DiffConfigs(der2.Config, net.LiveConfig()); len(d) != 0 {
		log.Fatalf("rollback left residue: %v", d)
	}
	fmt.Println("  post-rollback diff vs pre-transaction design: (empty — exact restore)")

	invalid := net.LiveConfig()
	fmt.Printf("\nphase 4: structural change (queue_num %d → 16) proposed live:\n", invalid.QueueNum)
	invalid.QueueNum = 16
	if _, err := net.Reconfigure(invalid); err != nil {
		fmt.Printf("  rejected before anything was touched: %v\n", err)
	} else {
		log.Fatal("structural change was accepted")
	}
}
