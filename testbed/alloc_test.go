package testbed

import (
	"runtime"
	"runtime/debug"
	"testing"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/israce"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
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
	// Build names its ports and NICs through fmt, whose printer pool
	// empties at every collection: a GC inside the measured runs made the
	// 64-flow count read 790–793. With the collector off, every run finds
	// the pool as the warm-up run left it.
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
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
	// 41.8 per port measured at 1 024 flows (95.8 when every queue, its
	// ring and every metric cell was an allocation of its own, 42.8 while
	// each CBS bank kept its bindings in a map); the margin is 7 %.
	if perPort := many / float64(ports); perPort > 44.7 {
		t.Fatalf("Build allocates %.1f per switch port, want <= 44.7", perPort)
	}
}

// sampleChunks is how many chunks the analyzer's per-class latency store
// has opened once it holds n samples (n below its decimation threshold):
// 256, 512, 1 024 and 2 048 samples, then 4 096 each.
func sampleChunks(n uint64) int {
	k := 0
	for size, held := uint64(256), uint64(0); held < n; k++ {
		held += size
		size = min(2*size, 4096)
	}
	return k
}

// quiesce returns, with ms read, once the process has stopped
// allocating. Every GC cycle wakes the unique package's map cleanup
// (net/netip links it in), which allocates on its own goroutine; with
// the collector off no cycle wakes it again, and sleeping lets a woken
// one finish before a Mallocs window opens rather than inside it, where
// it would land on a loaded host.
func quiesce(ms *runtime.MemStats) {
	runtime.ReadMemStats(ms)
	for range 100 {
		time.Sleep(time.Millisecond)
		last := ms.Mallocs
		if runtime.ReadMemStats(ms); ms.Mallocs == last {
			return
		}
	}
}

// TestSteadyStateRunAllocs is the CI gate on a run's steady state: once
// the run has reached its high-water marks — event blocks, frames in
// flight, FIFOs, free lists — driving the engine further allocates
// nothing but the latency-sample chunks its deliveries open. The engine
// runs in two halves; in the second, Mallocs may grow by the chunks
// that the per-class delivered counts at the half and at the end imply,
// and by nothing else: no event, frame, wire slot, gPTP message or
// closure. The mesh is TestRunAllocsIndependentOfFlowCount's; the ring
// runs ring-mixed's gPTP and RC/BE injectors, whose queue-full BE drops
// go back to the pool.
func TestSteadyStateRunAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, c := range []struct {
		name       string
		p          workload.Params
		gptp       bool
		warmup, at sim.Time // flows start at warmup, the halves meet at warmup+at
	}{
		// Each of the ring's halves, [200, 450) and [450, 700] ms, holds
		// a peer-delay exchange on every link (every 250 ms) and syncs
		// (every 32 ms): the first under traffic sets the high waters
		// the second meets.
		{"mesh", workload.Params{Topology: "mesh", Switches: 36, TSFlows: 1024, Hops: 4,
			WireSize: 64, SlotUs: 65, Seed: 42}, false, 0, 40 * sim.Millisecond},
		{"ring gptp rc be", workload.Params{Topology: "ring", Switches: 6, TSFlows: 1024, Hops: 3,
			WireSize: 64, SlotUs: 65, RCMbps: 200, BEMbps: 300, Seed: 42}, true, 200 * sim.Millisecond, 250 * sim.Millisecond},
	} {
		t.Run(c.name, func(t *testing.T) {
			net, _ := derivedNet(t, c.p, Options{Metrics: metrics.New(), EnableGPTP: c.gptp})
			classes := []ethernet.Class{ethernet.ClassTS, ethernet.ClassRC, ethernet.ClassBE}
			delivered := func() (n [3]uint64) {
				for i, cls := range classes {
					n[i] = net.Summary(cls).Received
				}
				return n
			}
			net.start(net.talkers, c.warmup)
			net.Engine.RunUntil(c.warmup + c.at)
			mid := delivered()
			// The window opens with the collector off and the process
			// quiet, so nothing but the run allocates in it.
			gc := debug.SetGCPercent(-1)
			var before, after runtime.MemStats
			quiesce(&before)
			net.Engine.RunUntil(c.warmup + 2*c.at)
			runtime.ReadMemStats(&after)
			debug.SetGCPercent(gc)
			end := delivered()
			allowed := 0
			for i := range classes {
				if end[i] >= 1<<16 {
					t.Fatalf("%d %v samples: past the decimation threshold this count cannot follow", end[i], classes[i])
				}
				allowed += sampleChunks(end[i]) - sampleChunks(mid[i])
			}
			got := after.Mallocs - before.Mallocs
			t.Logf("second half: %d allocations, %d sample chunks opened (delivered %v → %v)", got, allowed, mid, end)
			if end[0] == mid[0] {
				t.Fatal("no TS frame delivered in the second half")
			}
			if c.gptp && (end[1] == mid[1] || end[2] == mid[2] || net.SwitchStats().Drops[tsnswitch.DropQueueFull] == 0) {
				t.Fatalf("RC/BE delivered %v → %v, %d queue-full drops: the background traffic is not running",
					mid, end, net.SwitchStats().Drops[tsnswitch.DropQueueFull])
			}
			if got > uint64(allowed) {
				t.Fatalf("the second half allocated %d times, want at most the %d sample chunks it opened", got, allowed)
			}
		})
	}
}

// TestSwitchesShareOneCQFPair: gate lists are immutable and a list may
// serve both directions and any number of ports, so a network's
// switches, whatever part they run on, are built on one CQF pair.
func TestSwitchesShareOneCQFPair(t *testing.T) {
	for _, parts := range []int{1, 3} {
		net, _ := derivedNet(t, workload.Params{Topology: "mesh", Switches: 16, TSFlows: 64, Hops: 3,
			WireSize: 64, SlotUs: 65, Seed: 42}, Options{Partitions: parts})
		in, out := net.Switches[0].PortSchedules(0)
		if in == out {
			t.Fatal("the in and out lists are one list")
		}
		for _, sw := range net.Switches {
			for p := 0; p < sw.Config().Ports; p++ {
				if i, o := sw.PortSchedules(p); i != in || o != out {
					t.Fatalf("%d parts: switch %d port %d has its own CQF lists", parts, sw.ID(), p)
				}
			}
		}
	}
}
