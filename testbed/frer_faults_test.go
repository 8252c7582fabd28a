package testbed

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/frer"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// frerRingScenario builds a 6-switch bidirectional ring with a talker
// on switch 0 and a listener on switch 3, running nTS TS flows between
// them. With withFRER every flow is 802.1CB-replicated onto the
// counter-clockwise path; scenario (may be nil) is a fault script.
func frerRingScenario(t *testing.T, nTS int, withFRER bool, scenario *faults.Scenario) *Net {
	t.Helper()
	topo := topology.RingBidir(6)
	topo.AttachHost(100, 0)
	topo.AttachHost(101, 3)
	specs := flows.GenerateTS(flows.TSParams{
		Count:    nTS,
		Period:   sim.Millisecond,
		WireSize: 128,
		VID:      1,
		Hosts:    func(int) (int, int) { return 100, 101 },
		Seed:     11,
	})
	for i, s := range specs {
		s.VID = uint16(1 + i)
		if withFRER {
			s.FRER = true
			s.AltVID = uint16(1000 + i)
		}
	}
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
	net, err := Build(Options{
		Design:  design,
		Topo:    topo,
		Flows:   specs,
		Seed:    7,
		Metrics: metrics.New(),
		Faults:  scenario,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net
}

// cutPrimary severs the clockwise trunk between switches 1 and 2 — the
// middle of the talker→listener primary path — 50 ms into the run and
// never restores it.
func cutPrimary(t *testing.T) *faults.Scenario {
	t.Helper()
	a, b := 1, 2
	return &faults.Scenario{Faults: []faults.Fault{
		{AtUs: 50_000, Kind: faults.KindLinkDown, A: &a, B: &b},
	}}
}

func TestFRERZeroLossAcrossLinkFailure(t *testing.T) {
	// The headline 802.1CB property: a mid-run hard failure of a primary
	// path link loses not one TS frame, because the member stream on the
	// disjoint counter-clockwise path keeps delivering.
	net := frerRingScenario(t, 6, true, cutPrimary(t))
	net.Run(0, 100*sim.Millisecond)

	ts := net.Summary(ethernet.ClassTS)
	if ts.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if ts.Lost != 0 {
		t.Fatalf("TS loss with FRER = %d of %d (drops %+v)", ts.Lost, ts.Sent, net.SwitchStats().Drops)
	}
	// Before the cut both copies arrive: the recovery function must have
	// eliminated duplicates, and no rogue frames can exist on a healthy
	// dataplane.
	if ts.Duplicates == 0 {
		t.Fatal("no duplicates eliminated: replication never happened")
	}
	if ts.Rogue != 0 {
		t.Fatalf("rogue frames = %d", ts.Rogue)
	}
	// The primary copies sent after the cut died at the downed link and
	// must be attributed there.
	if v := net.Metrics.SumCounter(faults.MetricLinkDrops, metrics.L("reason", "link-down")); v == 0 {
		t.Fatal("no link-down drops attributed despite the cut")
	}
	if net.Injector.Injected() != 1 {
		t.Fatalf("injected = %d, want 1", net.Injector.Injected())
	}
	// Recovery bookkeeping at the listener NIC, read from its counters.
	if net.recovery[101] == nil {
		t.Fatal("listener has no recovery table")
	}
	host := metrics.L("host", "101")
	passed := net.Metrics.CounterValue(frer.MetricPassed, host)
	eliminated := net.Metrics.CounterValue(frer.MetricEliminated, host)
	rogue := net.Metrics.CounterValue(frer.MetricRogue, host)
	if passed != ts.Received || eliminated != ts.Duplicates || rogue != 0 {
		t.Fatalf("recovery stats %d/%d/%d vs summary %d/%d", passed, eliminated, rogue, ts.Received, ts.Duplicates)
	}
	// Ordered, gap-free delivery despite the path switch.
	for _, st := range net.Collector.Flows() {
		if st.Reordered != 0 || st.SeqGaps != 0 {
			t.Fatalf("flow %d: %d reordered, %d gaps", st.FlowID, st.Reordered, st.SeqGaps)
		}
	}
	if err := net.CheckBufferLeaks(); err != nil {
		t.Fatal(err)
	}
}

func TestLinkFailureWithoutFRERFullyAccounted(t *testing.T) {
	// Graceful degradation baseline: the same cut without redundancy
	// loses frames — but every loss is bounded to the outage and
	// attributed to the downed link, with no panic, leak or stuck MAC.
	net := frerRingScenario(t, 6, false, cutPrimary(t))
	net.Run(0, 100*sim.Millisecond)

	ts := net.Summary(ethernet.ClassTS)
	if ts.Lost == 0 {
		t.Fatal("cut lost nothing: fault never bit")
	}
	// The cut lands halfway through the window: losses are bounded by
	// roughly half the offered load (margin for in-flight frames).
	if ts.Lost > ts.Sent/2+uint64(len(net.Collector.Flows())) {
		t.Fatalf("lost %d of %d: more than the outage window can explain", ts.Lost, ts.Sent)
	}
	// Full accounting: every lost frame died at the downed link.
	linkDrops := net.Metrics.SumCounter(faults.MetricLinkDrops, metrics.L("reason", "link-down"))
	if linkDrops != ts.Lost {
		t.Fatalf("lost %d but %d attributed to the downed link", ts.Lost, linkDrops)
	}
	if err := net.CheckBufferLeaks(); err != nil {
		t.Fatal(err)
	}
}

func TestFaultKindsIntegration(t *testing.T) {
	// Drive the remaining fault kinds through a live testbed: transient
	// buffer exhaustion, gate-table misconfiguration, clock faults and a
	// link flap. Every transient fault must recover, nothing may leak,
	// and any loss must be attributed.
	sw1, sw2, port := 1, 2, 0
	sc := &faults.Scenario{Faults: []faults.Fault{
		{AtUs: 10_000, Kind: faults.KindLinkFlap, A: &sw1, B: &sw2, PeriodUs: 500, Count: 3},
		{AtUs: 30_000, Kind: faults.KindClockStep, Switch: &sw1, StepNs: 800},
		{AtUs: 35_000, Kind: faults.KindClockDrift, Switch: &sw1, DriftPPB: 60_000},
		{AtUs: 40_000, Kind: faults.KindBufferExhaust, Switch: &sw1, Port: &port, Slots: 1 << 20, DurationUs: 5_000},
		{AtUs: 60_000, Kind: faults.KindGateClose, Switch: &sw1, Port: &port, DurationUs: 1_000},
	}}
	topoPort, ok := topology.Ring(6).PortToward(1, 2)
	if !ok {
		t.Fatal("no port 1->2")
	}
	port = topoPort.Port

	topo := topology.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h)
	}
	specs := flows.GenerateTS(flows.TSParams{
		Count: 60, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
		Hosts: func(i int) (int, int) { src := i % 6; return 100 + src, 100 + (src+3)%6 },
		Seed:  11,
	})
	for i, s := range specs {
		s.VID = uint16(1 + i)
	}
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
	reg := metrics.New()
	net, err := Build(Options{
		Design: design, Topo: topo, Flows: specs,
		Seed: 3, Metrics: reg, Faults: sc,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0, 100*sim.Millisecond)

	// 3 flap cycles + 3 one-shot faults (step, drift and the exhaust/
	// gate activations) = 3+1+1+1+1 = 7 injections; flaps, buffer and
	// gate recover = 3+1+1 = 5 recoveries.
	if inj := net.Injector.Injected(); inj != 7 {
		t.Fatalf("injected = %d, want 7", inj)
	}
	if rec := net.Injector.Recovered(); rec != 5 {
		t.Fatalf("recovered = %d, want 5", rec)
	}
	// Losses (if any) are attributed: link drops + switch drops cover
	// the whole gap between sent and received.
	ts := net.Summary(ethernet.ClassTS)
	swStats := net.SwitchStats()
	accounted := reg.SumCounter(faults.MetricLinkDrops) + swStats.TotalDrops()
	if ts.Lost > accounted {
		t.Fatalf("lost %d but only %d drops accounted", ts.Lost, accounted)
	}
	// The transient faults released everything they held.
	if err := net.CheckBufferLeaks(); err != nil {
		t.Fatal(err)
	}
	for s, sw := range net.Switches {
		for p := 0; p < topo.PortCount(s); p++ {
			if r := sw.Port(p).Pool().Reserved(); r != 0 {
				t.Fatalf("switch %d port %d still reserves %d slots", s, p, r)
			}
		}
	}
}
