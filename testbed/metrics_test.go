package testbed

import (
	"bytes"
	"fmt"
	"strconv"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/frer"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// deliveredHasOneHome checks each traffic class's delivered series
// against the frames its flows received, and that every class delivered.
func deliveredHasOneHome(t *testing.T, net *Net, reg *metrics.Registry) {
	t.Helper()
	var received [3]uint64
	for _, st := range net.Collector.Flows() {
		received[st.Class] += st.Received
	}
	for cls, n := range received {
		name := ethernet.Class(cls).String()
		if got := reg.CounterValue("tsn_flows_delivered_total", metrics.L("class", name)); got != n || n == 0 {
			t.Errorf("%d partition(s): %s flows received %d frames, tsn_flows_delivered_total exports %d",
				net.Partitions(), name, n, got)
		}
	}
}

// metricsScenario is a 6-switch ring carrying planned TS flows plus
// one RC background flow, fully instrumented.
func metricsScenario(t *testing.T, nTS int) (*Net, []*flows.Spec, *metrics.Registry) {
	t.Helper()
	topo := topology.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h)
		topo.AttachHost(200+h, h)
	}
	specs := flows.GenerateTS(flows.TSParams{
		Count:    nTS,
		Period:   10 * sim.Millisecond,
		WireSize: 64,
		VID:      1,
		Hosts: func(i int) (int, int) {
			src := i % 6
			return 100 + src, 100 + (src+2)%6
		},
		Seed: 11,
	})
	for i, s := range specs {
		s.VID = uint16(1 + i%4000)
	}
	specs = append(specs, flows.Background(50_000, ethernet.ClassRC,
		200, 102, 3000, 50*ethernet.Mbps))
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
		Design:  design,
		Topo:    topo,
		Flows:   specs,
		Seed:    5,
		Metrics: reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	return net, specs, reg
}

// TestCQFInvariantViaCounters drives TS traffic under CQF while an RC
// background flow is deliberately over-policed, then checks the TSN
// invariant straight off the telemetry registry: the shared dataplane
// shows meter drops (the background is punished) but zero gate/queue/
// buffer drops, and every TS frame sent is delivered.
func TestCQFInvariantViaCounters(t *testing.T) {
	net, specs, reg := metricsScenario(t, 60)
	// Tighten the RC flow's meter on its first-hop switch far below its
	// offered 50 Mbps, the misbehaving-source scenario 802.1Qci polices.
	rcSpec := specs[len(specs)-1]
	firstHop := net.Switches[rcSpec.Path[0]]
	if err := firstHop.Filter().Meters.Configure(0, 1*ethernet.Mbps, 2048); err != nil {
		t.Fatal(err)
	}
	net.Run(0, 100*sim.Millisecond)

	// Background was policed: meter drops on the first-hop switch only.
	meterDrops := reg.SumCounter(tsnswitch.MetricDrops, metrics.L("reason", "meter"))
	if meterDrops == 0 {
		t.Fatal("over-rate RC background shows no meter drops")
	}
	if perSwitch := reg.CounterValue(tsnswitch.MetricMeterDrop,
		metrics.L("switch", "0")); perSwitch != meterDrops {
		t.Fatalf("meter-stage drops = %d but switch drop counter says %d", perSwitch, meterDrops)
	}
	// The TS invariant: no frame anywhere hit a closed gate, a full
	// queue or an exhausted buffer pool.
	for _, reason := range []tsnswitch.DropReason{
		tsnswitch.DropGateClosed, tsnswitch.DropQueueFull, tsnswitch.DropBufferFull,
	} {
		if n := reg.SumCounter(tsnswitch.MetricDrops, metrics.L("reason", reason.String())); n != 0 {
			t.Errorf("%s drops = %d, want 0", reason, n)
		}
	}
	// Every TS frame sent was delivered, per the registry.
	var tsSent uint64
	sent := net.SentCounts()
	for _, s := range specs {
		if s.Class == ethernet.ClassTS {
			tsSent += sent[s.ID]
		}
	}
	delivered := reg.CounterValue("tsn_flows_delivered_total", metrics.L("class", "TS"))
	if tsSent == 0 || delivered != tsSent {
		t.Fatalf("TS delivered = %d, sent = %d", delivered, tsSent)
	}
	// Registry and legacy Stats agree on the aggregate view.
	st := net.SwitchStats()
	if rx := reg.SumCounter(tsnswitch.MetricRxFrames); rx != st.RxFrames {
		t.Fatalf("rx counter = %d, Stats says %d", rx, st.RxFrames)
	}
	if ev := reg.CounterValue("tsn_sim_events_total"); ev == 0 {
		t.Fatal("scheduler executed no instrumented events")
	}
}

// TestMetricsExportFromTestbed exercises the export path on a built
// network: the snapshot renders Prometheus text containing per-switch
// series for every ring member.
func TestMetricsExportFromTestbed(t *testing.T) {
	net, _, reg := metricsScenario(t, 12)
	net.Run(0, 20*sim.Millisecond)
	var buf bytes.Buffer
	if err := reg.Snapshot().WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	text := buf.String()
	for s := 0; s < 6; s++ {
		want := `tsn_switch_rx_frames_total{switch="` + string(rune('0'+s)) + `"}`
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %s", want)
		}
	}
	if !strings.Contains(text, "tsn_queue_residence_ns_bucket") {
		t.Error("exposition missing residence histogram")
	}
}

// TestCountsHaveOneHome: every count an owner keeps and reads through
// an accessor is the cell its registry exports, on a run that moves all
// of them — a bidir ring with gPTP, FRER, RC/BE pressure, a link-loss
// fault and the watchdog.
func TestCountsHaveOneHome(t *testing.T) {
	sw2, sw3 := 2, 3
	p := withBackground(workload.Params{Topology: "bidir-ring", Switches: 6, TSFlows: 48, Hops: 4,
		WireSize: 64, SlotUs: 65, FRERFlows: 16, Seed: 42}, 200, 300)
	wl, err := workload.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	net, err := Build(Options{Design: wl.Design, Topo: wl.Topo, Flows: wl.Specs, Seed: p.Seed, Metrics: reg,
		EnableGPTP: true, EnableWatchdog: true, Faults: &faults.Scenario{Faults: []faults.Fault{
			{AtUs: 205_000, Kind: faults.KindLinkLoss, A: &sw2, B: &sw3, Prob: 0.25, DurationUs: 8_000},
		}}})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(200*sim.Millisecond, 30*sim.Millisecond)

	same := func(what string, owner, exported uint64) {
		t.Helper()
		if owner != exported {
			t.Errorf("%s: the owner reads %d, the registry exports %d", what, owner, exported)
		}
	}
	num := func(key string, v int) metrics.Label { return metrics.L(key, strconv.Itoa(v)) }
	var drops, poolHW uint64
	for _, sw := range net.Switches {
		id, st := num("switch", sw.ID()), sw.Stats()
		same(fmt.Sprintf("switch %d rx", sw.ID()), st.RxFrames, reg.CounterValue(tsnswitch.MetricRxFrames, id))
		same(fmt.Sprintf("switch %d tx", sw.ID()), st.TxFrames, reg.CounterValue(tsnswitch.MetricTxFrames, id))
		for _, r := range tsnswitch.DropReasons() {
			same(fmt.Sprintf("switch %d %s drops", sw.ID(), r), st.Drops[r],
				reg.CounterValue(tsnswitch.MetricDrops, id, metrics.L("reason", r.String())))
		}
		drops += st.TotalDrops()
		for pi := range sw.Config().Ports {
			port, pool := num("port", pi), sw.Port(pi).Pool()
			same(fmt.Sprintf("switch %d port %d pool in use", sw.ID(), pi), uint64(pool.InUse()),
				uint64(reg.GaugeValue(tsnswitch.MetricPoolOcc, id, port)))
			same(fmt.Sprintf("switch %d port %d pool high water", sw.ID(), pi), uint64(pool.HighWater()),
				uint64(reg.GaugeValue(tsnswitch.MetricPoolHW, id, port)))
			poolHW += uint64(pool.HighWater())
			for q := range sw.Config().QueuesPerPort {
				same(fmt.Sprintf("switch %d port %d queue %d high water", sw.ID(), pi, q), uint64(sw.QueueHighWater(pi, q)),
					uint64(reg.GaugeValue(tsnswitch.MetricQueueHW, id, port, num("queue", q))))
			}
		}
		same(fmt.Sprintf("switch %d degrade level", sw.ID()), uint64(sw.DegradeLevel()),
			uint64(reg.GaugeValue(reconfig.MetricDegradeLevel, id)))
	}
	same("events", net.Engine.Executed(), reg.CounterValue("tsn_sim_events_total"))
	var syncs, steps uint64
	for _, st := range net.Domain.Stats() {
		node := num("node", st.NodeID)
		same(fmt.Sprintf("node %d syncs", st.NodeID), uint64(st.SyncCount), reg.CounterValue("tsn_gptp_syncs_total", node))
		same(fmt.Sprintf("node %d steps", st.NodeID), uint64(st.StepCount), reg.CounterValue("tsn_gptp_steps_total", node))
		syncs, steps = syncs+uint64(st.SyncCount), steps+uint64(st.StepCount)
	}
	same("faults injected", net.Injector.Injected(), reg.SumCounter(faults.MetricInjected))
	same("faults recovered", net.Injector.Recovered(), reg.SumCounter(faults.MetricRecovered))
	same("watchdog audits", net.Watchdog.Audits(), reg.CounterValue(reconfig.MetricAudits))
	same("watchdog violations", net.Watchdog.TotalViolations(), reg.SumCounter(reconfig.MetricViolations))
	deliveredHasOneHome(t, net, reg)

	// The same workload on two partitions, stripped to what they run:
	// each part's collector exports its own deliveries, and the merge
	// adds them up.
	pnet, err := Build(Options{Design: wl.Design, Topo: wl.Topo, Flows: wl.Specs, Seed: p.Seed, Metrics: metrics.New(),
		Partitions: 2})
	if err != nil {
		t.Fatal(err)
	}
	pnet.Run(0, 30*sim.Millisecond)
	deliveredHasOneHome(t, pnet, pnet.Metrics)

	// Each agreement above is between numbers the run moved.
	for what, n := range map[string]uint64{
		"drops": drops, "pool high water": poolHW, "syncs": syncs, "steps": steps,
		"faults injected": net.Injector.Injected(), "faults recovered": net.Injector.Recovered(),
		"audits": net.Watchdog.Audits(), "FRER eliminations": reg.SumCounter(frer.MetricEliminated),
	} {
		if n == 0 {
			t.Errorf("the run counted no %s", what)
		}
	}
}
