package testbed

import (
	"runtime"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/israce"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// TestLineFramePathAllocs gates the whole frame path end to end: NIC
// inject → three switches → remote NIC → Collector.Record, registry
// on as in tsnsim. In steady state a delivered frame costs nothing: the
// listener returns the Frame to the part's pool and the talker draws it
// again (1.00 per frame before recycling). Per-flow state is admitted at
// build, so the budget only leaves room for a late growth step of
// something sized by traffic: a latency sample store, a FIFO.
func TestLineFramePathAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	topo := topology.Linear(3)
	topo.AttachHost(100, 0)
	topo.AttachHost(101, 2)
	specs := flows.GenerateTS(flows.TSParams{
		Count: 16, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
		Hosts: func(int) (int, int) { return 100, 101 },
		Seed:  3,
	})
	for i, s := range specs {
		s.VID = uint16(1 + i)
	}
	net := buildNet(t, topo, specs, Options{Seed: 5, Metrics: metrics.New()})
	for _, s := range specs {
		net.NICs[s.SrcHost].StartFlow(s)
	}
	const window = 100 * sim.Millisecond // ten periods of every flow
	net.Engine.RunFor(window)            // warm: per-flow stats, free lists, FIFOs
	before := net.Summary(ethernet.ClassTS).Received
	const runs = 10
	allocs := testing.AllocsPerRun(runs, func() { net.Engine.RunFor(window) })
	received := net.Summary(ethernet.ClassTS).Received
	frames := float64(received-before) / (runs + 1) // AllocsPerRun adds one warm-up call
	if st := net.SwitchStats(); frames < 100 || st.TotalDrops() != 0 {
		t.Fatalf("%.0f frames per window, %d drops", frames, st.TotalDrops())
	}
	if perFrame := allocs / frames; perFrame > 0.05 {
		t.Fatalf("%.2f allocations per delivered frame (%.0f per %.0f frames), want <= 0.05", perFrame, allocs, frames)
	} else {
		t.Logf("%.2f allocations per delivered frame", perFrame)
	}
}

// TestRunAllocsIndependentOfFlowCount: a flow's state in every layer — its
// generator row at the talker, its statistics row at the listener — is
// admitted at build, so Net.Run allocates no more with
// 1 024 flows than with 256 (about three allocations per flow when that
// state was made at first use). What remains grows with the frames in
// flight, not the flows. The mesh case also pins the event queue's
// storage to the pending depth: a 36-switch mesh puts many more events
// at each slot boundary than the ring, and a queue that grew with the
// events at an instant or with the events run would show here.
func TestRunAllocsIndependentOfFlowCount(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	runAllocs := func(t *testing.T, net *Net, flowCount int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		net.Run(0, 30*sim.Millisecond)
		runtime.ReadMemStats(&after)
		if ts := net.Summary(ethernet.ClassTS); ts.Lost != 0 || len(net.Collector.Delivered()) != flowCount {
			t.Fatalf("%d flows: lost %d, %d flows delivered", flowCount, ts.Lost, len(net.Collector.Delivered()))
		}
		return after.Mallocs - before.Mallocs
	}
	for _, c := range []struct {
		name  string
		build func(t *testing.T, flowCount int) *Net
	}{
		{"ring", func(t *testing.T, flowCount int) *Net {
			net, _, _ := liveRing(t, flowCount, false, Options{Metrics: metrics.New()})
			return net
		}},
		{"mesh", func(t *testing.T, flowCount int) *Net {
			net, _ := derivedNet(t, workload.Params{Topology: "mesh", Switches: 36, TSFlows: flowCount,
				Hops: 4, WireSize: 64, SlotUs: 65, Seed: 42}, Options{Metrics: metrics.New()})
			return net
		}},
	} {
		t.Run(c.name, func(t *testing.T) {
			few, many := runAllocs(t, c.build(t, 256), 256), runAllocs(t, c.build(t, 1024), 1024)
			t.Logf("Net.Run allocations: %d with 256 flows, %d with 1024", few, many)
			if many > few+64 {
				t.Fatalf("Net.Run allocates %d times with 1024 flows, %d with 256: want a difference <= 64", many, few)
			}
		})
	}
}

// TestBuildAllocsPerPort is the CI gate on building a network in bulk:
// Build allocates per switch port (its pool, CBS bank and interface)
// and per metric family, never per queue or per metric cell, so its
// allocations per port stay under a fixed bound, and 16 times the flows
// on the 6-switch ring cost the same but for the collector's flow-ID
// map: at 1 024 entries a Go map spans a second table.
func TestBuildAllocsPerPort(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	build := func(flowCount int) (allocs float64, ports int) {
		topo := topology.Ring(6)
		for h := 0; h < 6; h++ {
			topo.AttachHost(100+h, h)
		}
		specs := flows.GenerateTS(flows.TSParams{
			Count: flowCount, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
			Hosts: func(i int) (int, int) { return 100 + i%6, 100 + (i+2)%6 },
			Seed:  11,
		})
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
		var net *Net
		allocs = testing.AllocsPerRun(3, func() {
			net, err = Build(Options{Design: design, Topo: topo, Flows: specs, Seed: 5, Metrics: metrics.New()})
			if err != nil {
				t.Fatal(err)
			}
		})
		for _, sw := range net.Switches {
			ports += sw.Config().Ports
		}
		return allocs, ports
	}
	few, ports := build(64)
	many, _ := build(1024)
	t.Logf("Build allocations: %.0f with 64 flows, %.0f with 1024, over %d switch ports: %.1f per port", few, many, ports, few/float64(ports))
	if many-few > 2 {
		t.Fatalf("Build allocates %.0f times with 1024 flows, %.0f with 64: want at most the flow-ID map's 2 more", many, few)
	}
	// 44.1 per port measured (95.8 when every queue, its ring and every
	// metric cell was an allocation of its own); the margin is 7 %.
	if perPort := many / float64(ports); perPort > 47 {
		t.Fatalf("Build allocates %.1f per switch port, want <= 47", perPort)
	}
}
