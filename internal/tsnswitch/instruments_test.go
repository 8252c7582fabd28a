package tsnswitch

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/israce"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tables"
)

func newMetricsRig(t *testing.T) (*rig, *metrics.Registry) {
	t.Helper()
	reg := metrics.New()
	cfg := testConfig()
	cfg.Metrics = reg
	return newRig(t, cfg), reg
}

func TestSwitchMetricsMatchStats(t *testing.T) {
	r, reg := newMetricsRig(t)
	for i := 0; i < 5; i++ {
		r.hosts[0].sendAt(sim.Time(i)*sim.Millisecond, tsFrame(1, uint32(i+1)))
	}
	r.engine.RunUntil(sim.Second)
	st := r.sw.Stats()
	if st.RxFrames != 5 || st.TxFrames != 5 {
		t.Fatalf("stats = %+v", st)
	}
	if got := reg.CounterValue(MetricRxFrames, metrics.L("switch", "0")); got != st.RxFrames {
		t.Fatalf("rx counter = %d, want %d", got, st.RxFrames)
	}
	if got := reg.CounterValue(MetricTxFrames, metrics.L("switch", "0")); got != st.TxFrames {
		t.Fatalf("tx counter = %d, want %d", got, st.TxFrames)
	}
	// All five TS frames were admitted somewhere on egress port 1.
	if got := reg.SumCounter(MetricEnqueues, metrics.L("port", "1")); got != 5 {
		t.Fatalf("enqueues on port 1 = %d, want 5", got)
	}
	// Residence histogram saw one observation per transmitted frame.
	snap := reg.Snapshot()
	for _, fam := range snap.Families {
		if fam.Name != MetricResidence {
			continue
		}
		if n := fam.Samples[0].Count; n != 5 {
			t.Fatalf("residence count = %d, want 5", n)
		}
	}
}

func TestSwitchMetricsDropReasons(t *testing.T) {
	r, reg := newMetricsRig(t)
	f := tsFrame(1, 1)
	f.Dst = ethernet.HostMAC(55) // no route installed
	r.hosts[0].sendAt(0, f)
	r.engine.RunUntil(sim.Second)
	got := reg.CounterValue(MetricDrops,
		metrics.L("switch", "0"), metrics.L("reason", DropNoRoute.String()))
	if got != 1 {
		t.Fatalf("no-route drop counter = %d, want 1", got)
	}
	// Every drop reason has a registered (if zero) time series.
	if total := reg.SumCounter(MetricDrops); total != 1 {
		t.Fatalf("total drops = %d, want 1", total)
	}
}

func TestUninstrumentedSwitchRuns(t *testing.T) {
	// Nil registry: every handle is a no-op and the dataplane still
	// forwards.
	r := newRig(t, testConfig())
	r.hosts[0].sendAt(0, tsFrame(1, 1))
	r.engine.RunUntil(sim.Second)
	if len(r.hosts[1].got) != 1 {
		t.Fatalf("received %d frames, want 1", len(r.hosts[1].got))
	}
}

// sink is a frame receiver that discards, so benchmark memory stays
// flat regardless of b.N.
type sink struct{}

func (sink) Receive(*ethernet.Frame, *netdev.Ifc) {}

// benchForward pushes b.N frames through the full ingress→egress
// pipeline, draining the event queue after each injection.
func benchForward(b *testing.B, reg *metrics.Registry) {
	e := sim.NewEngine()
	cfg := testConfig()
	cfg.Metrics = reg
	sw := New(e, cfg)
	peer := netdev.NewIfc(e, "peer", sink{}, ethernet.Gbps)
	netdev.Connect(sw.Ifc(1), peer, 100*sim.Nanosecond)
	if err := sw.Forward().Unicast.Add(ethernet.HostMAC(1), 1, 1); err != nil {
		b.Fatal(err)
	}
	f := tsFrame(1, 1)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sw.ingress(f)
		e.Run()
	}
	if sw.Stats().TxFrames != uint64(b.N) {
		b.Fatalf("tx = %d, want %d", sw.Stats().TxFrames, b.N)
	}
}

func BenchmarkSwitchForward(b *testing.B) {
	benchForward(b, nil)
}

func BenchmarkSwitchForwardInstrumented(b *testing.B) {
	benchForward(b, metrics.New())
}

// TestSwitchHopAllocFree gates the switch layer of the frame path: on a
// warmed engine one instrumented hop — Port.Receive through filter,
// gate, queue and egress to the peer's Receive, the CQF slot waited out
// in simulated time — allocates nothing.
func TestSwitchHopAllocFree(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := sim.NewEngine()
	cfg := testConfig()
	cfg.Metrics = metrics.New()
	sw := New(e, cfg)
	peer := netdev.NewIfc(e, "peer", sink{}, ethernet.Gbps)
	netdev.Connect(sw.Ifc(1), peer, 100*sim.Nanosecond)
	if err := sw.Forward().Unicast.Add(ethernet.HostMAC(1), 1, 1); err != nil {
		t.Fatal(err)
	}
	f := tsFrame(1, 1)
	if err := sw.Filter().Class.Add(tables.KeyFor(f), tables.ClassEntry{QueueID: cfg.TSQueueA}); err != nil {
		t.Fatal(err)
	}
	hop := func() {
		sw.Port(0).Receive(f, sw.Ifc(0))
		e.Run()
	}
	hop() // warm the event free list and the wire FIFO
	if allocs := testing.AllocsPerRun(1000, hop); allocs != 0 {
		t.Fatalf("one switch hop allocated %.1f/frame, want 0", allocs)
	}
	st := sw.Stats()
	if _, rx, _ := peer.Counters(); rx < 1000 || st.TotalDrops() != 0 {
		t.Fatalf("peer received %d frames, %d drops", rx, st.TotalDrops())
	}
}
