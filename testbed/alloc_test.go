package testbed

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/israce"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// TestLineFramePathAllocs gates the whole frame path end to end: NIC
// inject → three switches → remote NIC → Collector.Record, registry
// on as in tsnsim. In steady state a delivered frame costs nothing: the
// listener returns the Frame to the part's pool and the talker draws it
// again (1.00 per frame before recycling; the budget leaves room for a
// histogram bucket or a map growing late).
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
