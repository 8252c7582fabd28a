// Gptp-failover exercises the Time Sync template's full 802.1AS
// behaviour: six switches elect a grandmaster with the Best Master
// Clock Algorithm (Announce messages flooding the ring), discipline
// their oscillators to sub-50 ns, and when the grandmaster dies
// mid-operation the survivors re-elect and re-converge — the
// self-healing TSN networks rely on.
//
// Run: go run ./examples/gptp-failover
package main

import (
	"fmt"
	"log"

	"github.com/tsnbuilder/tsnbuilder/internal/clock"
	"github.com/tsnbuilder/tsnbuilder/internal/gptp"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

func main() {
	engine := sim.NewEngine()
	dom := gptp.NewDomain(engine)

	// Six switches with distinct oscillator qualities; switch 2 carries
	// the best clock (lowest clockClass).
	drifts := []clock.PPB{31_000, -44_000, 5_000, 27_000, -12_000, 48_000}
	nodes := make([]*gptp.Node, 6)
	for i, d := range drifts {
		nodes[i] = dom.AddNode(i, d, sim.Time(i)*80*sim.Microsecond)
	}
	for i := range nodes {
		dom.Connect(nodes[i], nodes[(i+1)%6], 400*sim.Nanosecond)
	}
	// The backup master sits next to the primary: when both have died
	// (parts one and two below) the survivors still form a connected
	// segment of the ring, so the BMCA can re-converge.
	dom.SetPriority(nodes[2], gptp.PriorityVector{Priority1: 100, ClockClass: 6, ClockID: 2})
	dom.SetPriority(nodes[3], gptp.PriorityVector{Priority1: 110, ClockClass: 7, ClockID: 3})

	gm, err := dom.ElectAndAssume()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("elected grandmaster: switch %d (priority %+v)\n", gm.ID, gm.Priority())

	dom.Start()
	engine.RunUntil(2 * sim.Second)
	fmt.Printf("after 2s:  worst offset %v\n", dom.MaxAbsOffset())

	fmt.Printf("\n*** switch %d fails ***\n", gm.ID)
	if err := dom.FailNode(gm); err != nil {
		log.Fatal(err)
	}
	newGM := dom.Grandmaster()
	fmt.Printf("re-elected grandmaster: switch %d (priority %+v)\n", newGM.ID, newGM.Priority())

	engine.RunFor(3 * sim.Second)
	fmt.Printf("after re-convergence: worst offset %v (target < 50ns)\n", dom.MaxAbsOffset())

	// An administrative FailNode announces itself; a crash does not.
	// Arm the 802.1AS sync-receipt watchdog (three missed sync
	// intervals) and kill the new grandmaster silently: detection,
	// re-election and servo re-convergence all have to happen on their
	// own. The time from crash to re-entering the 50 ns band is the
	// reconvergence time the testbed asserts a bound on.
	dom.EnableAutoFailover()
	crashed := dom.Grandmaster()
	fmt.Printf("\n*** switch %d crashes silently (watchdog armed) ***\n", crashed.ID)
	crashAt := engine.Now()
	dom.KillNode(crashed)
	for i := 0; i < 100; i++ {
		engine.RunFor(50 * sim.Millisecond)
		if dom.Grandmaster() != crashed && dom.MaxAbsOffset() < 50*sim.Nanosecond {
			break
		}
	}
	survivor := dom.Grandmaster()
	if survivor == crashed {
		log.Fatal("watchdog never detected the crashed grandmaster")
	}
	fmt.Printf("watchdog re-elected switch %d; reconverged to %v in %v\n",
		survivor.ID, dom.MaxAbsOffset(), engine.Now()-crashAt)

	for _, st := range dom.Stats() {
		fmt.Printf("  switch %d: %4d syncs, %d steps, offset %v\n",
			st.NodeID, st.SyncCount, st.StepCount, st.Offset)
	}
}
