package tsnswitch

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/gate"
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
	for b.Loop() {
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
	rx := 0
	peer.SetSniffer(func(*ethernet.Frame, sim.Time) { rx++ })
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
	if rx < 1000 || st.TotalDrops() != 0 {
		t.Fatalf("peer received %d frames, %d drops", rx, st.TotalDrops())
	}
}

// rollovers reads one (port, direction) series of the rig's switch.
func rollovers(reg *metrics.Registry, port, dir string) uint64 {
	return reg.CounterValue(MetricRollovers,
		metrics.L("switch", "0"), metrics.L("port", port), metrics.L("dir", dir))
}

// TestRolloversCountPerPortAndDirection: one immutable list installed
// as in and out of both ports counts every (port, direction) on its
// own — each reads the slot index of its own last evaluation. (With
// the counter and cursor inside the list object, only the last bound
// series moved.)
func TestRolloversCountPerPortAndDirection(t *testing.T) {
	r, reg := newMetricsRig(t)
	shared := gate.AlwaysOpen(100 * sim.Microsecond)
	for p := 0; p < 2; p++ {
		if err := r.sw.SetPortSchedules(p, shared, shared); err != nil {
			t.Fatal(err)
		}
	}
	// Port 1 evaluates its gates until 950 µs (slot 9), port 0 — the
	// reverse direction — only until 350 µs (slot 3).
	for i := 0; i < 10; i++ {
		r.hosts[0].sendAt(sim.Time(50+100*i)*sim.Microsecond, tsFrame(1, uint32(i+1)))
	}
	for i := 0; i < 4; i++ {
		r.hosts[1].sendAt(sim.Time(50+100*i)*sim.Microsecond, tsFrame(0, uint32(i+1)))
	}
	r.engine.RunUntil(sim.Second)
	for _, c := range []struct {
		port, dir string
		want      uint64
	}{{"1", "in", 9}, {"1", "out", 9}, {"0", "in", 3}, {"0", "out", 3}} {
		if got := rollovers(reg, c.port, c.dir); got != c.want {
			t.Errorf("port %s dir %s: %d rollovers, want %d", c.port, c.dir, got, c.want)
		}
	}
}

// TestRolloverCursorAcrossReplacement: replacing a port's lists by
// ones on the same grid and putting the originals back — what a
// gate-close fault does — neither repeats nor drops a rollover, also
// when nothing evaluates the gates in between; a list installed at its
// own base (RebaseCQF) counts from that instant.
func TestRolloverCursorAcrossReplacement(t *testing.T) {
	r, reg := newMetricsRig(t)
	slot := r.sw.Config().SlotSize
	send := func(at sim.Time, seq uint32) { r.hosts[0].sendAt(at, tsFrame(1, seq)) }
	send(slot/2, 1) // both directions of port 1 evaluated in slot 0/1
	r.engine.At(10*slot+slot/2, "swap", func(*sim.Engine) {
		in, out := r.sw.PortSchedules(1)
		stuck, _ := gate.CQF(slot, 5, 4)
		if err := r.sw.SetPortSchedules(1, stuck, stuck); err != nil {
			t.Error(err)
		}
		r.engine.After(20*slot, "restore", func(*sim.Engine) {
			if err := r.sw.SetPortSchedules(1, in, out); err != nil {
				t.Error(err)
			}
		})
	})
	send(40*slot+slot/2, 2)
	r.engine.RunUntil(50 * slot)
	if in, out := rollovers(reg, "1", "in"), rollovers(reg, "1", "out"); in != 40 || out != 41 {
		t.Fatalf("after replace+restore: in=%d out=%d, want 40/41 (enqueued in slot 40, drained in 41)", in, out)
	}
	// Rebase at 50 slots onto a 3× slot: counting restarts at the new
	// base, so a frame in the new grid's slot 2 adds 2 (in) and 3 (out).
	base := 50 * slot
	if err := r.sw.RebaseCQF(3*slot, base); err != nil {
		t.Fatal(err)
	}
	send(base+7*slot, 3)
	r.engine.RunUntil(base + 20*slot)
	if in, out := rollovers(reg, "1", "in"), rollovers(reg, "1", "out"); in != 42 || out != 44 {
		t.Fatalf("after rebase: in=%d out=%d, want 42/44", in, out)
	}
}
