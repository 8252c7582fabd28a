package testbed

// Integration tests for transactional live reconfiguration: a running
// ring network under active TS traffic is grown, shrunk, rejected,
// fault-injected and audited while frames are in flight.

import (
	"bytes"
	"fmt"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

// liveRing builds the 6-switch ring used by the reconfiguration tests:
// nTS planned TS flows (hop length 2), optional BE background, and the
// extra Options the live-reconfiguration scenarios need.
func liveRing(t *testing.T, nTS int, withBE bool, opts Options) (*Net, []*flows.Spec, *topology.Topology) {
	t.Helper()
	topo := topology.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h)
	}
	specs := flows.GenerateTS(flows.TSParams{
		Count: nTS, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
		Hosts: func(i int) (int, int) { return 100 + i%6, 100 + (i+2)%6 },
		Seed:  11,
	})
	for i, s := range specs {
		s.VID = uint16(1 + i%4000)
	}
	if withBE {
		id := uint32(5000)
		for src := 0; src < 3; src++ {
			specs = append(specs, flows.Background(id, ethernet.ClassBE,
				100+src, 100+(src+2)%6, uint16(3100+src), 100*ethernet.Mbps))
			id++
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
	opts.Design = design
	opts.Topo = topo
	opts.Flows = specs
	opts.Seed = 5
	net, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	return net, specs, topo
}

// grownConfig is the mid-run candidate: every mutable table doubled,
// queues deepened, buffers widened. Structural fields stay put so the
// transaction is applicable live.
func grownConfig(cfg core.Config) core.Config {
	cfg.UnicastSize *= 2
	cfg.ClassSize *= 2
	cfg.MeterSize *= 2
	cfg.QueueDepth *= 2
	cfg.BufferNum *= 2
	return cfg
}

// TestLiveReconfigZeroTSLossDeterministic is the headline acceptance
// scenario: a transaction begun under active TS traffic commits at a
// CQF cycle boundary with zero TS loss, and two same-seed runs produce
// byte-identical metrics exports.
func TestLiveReconfigZeroTSLossDeterministic(t *testing.T) {
	run := func() (committed bool, lost uint64, export string) {
		reg := metrics.New()
		net, _, _ := liveRing(t, 60, false, Options{Metrics: reg})
		pre := net.LiveConfig()
		var txn *reconfig.Txn
		net.Engine.At(40*sim.Millisecond, "grow", func(*sim.Engine) {
			var err error
			txn, err = net.Reconfigure(grownConfig(pre))
			if err != nil {
				t.Fatalf("reconfigure: %v", err)
			}
		})
		net.Run(0, 100*sim.Millisecond)

		if txn == nil {
			t.Fatal("reconfigure event never ran")
		}
		cycle := 2 * pre.SlotSize
		if txn.CommitTime() <= 40*sim.Millisecond || txn.CommitTime()%cycle != 0 {
			t.Fatalf("commit at %v, not a cycle boundary after begin", txn.CommitTime())
		}
		var buf bytes.Buffer
		net.Metrics.Snapshot().WritePrometheus(&buf)
		if got := reg.CounterValue(reconfig.MetricTxns, metrics.L("outcome", "committed")); got != 1 {
			t.Fatalf("committed counter = %d", got)
		}
		return txn.State() == reconfig.StateCommitted, net.Summary(ethernet.ClassTS).Lost, buf.String()
	}

	c1, lost1, export1 := run()
	if !c1 {
		t.Fatal("transaction did not commit")
	}
	if lost1 != 0 {
		t.Fatalf("TS loss across live reconfiguration: %d", lost1)
	}
	c2, lost2, export2 := run()
	if !c2 || lost2 != 0 {
		t.Fatalf("second run: committed=%v lost=%d", c2, lost2)
	}
	if export1 != export2 {
		t.Fatal("same-seed runs diverged: metrics exports differ")
	}
}

// TestLiveReconfigAddFlowsDoubles reproduces the paper's rapid-
// customization pitch end to end: derive for 2× the flows, commit the
// grown configuration mid-run, then stream the second batch of flows
// into the running network — all with zero TS loss.
func TestLiveReconfigAddFlowsDoubles(t *testing.T) {
	net, specs, topo := liveRing(t, 60, false, Options{})
	pre := net.LiveConfig()

	// Derive the doubled scenario up front: its config is the reconfig
	// candidate and its ITP plan carries offsets for the new flows.
	extra := flows.GenerateTS(flows.TSParams{
		Count: 60, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
		Hosts: func(i int) (int, int) { return 100 + (i+3)%6, 100 + (i+5)%6 },
		Seed:  13,
	})
	for i, s := range extra {
		s.ID = uint32(1000 + i)
		s.VID = uint16(2000 + i)
	}
	if err := core.BindPaths(topo, extra); err != nil {
		t.Fatal(err)
	}
	all := append(append([]*flows.Spec{}, specs...), extra...)
	der2, err := core.DeriveConfig(core.Scenario{Topo: topo, Flows: all})
	if err != nil {
		t.Fatal(err)
	}
	der2.Plan.Apply(extra) // originals keep their live offsets
	cand := der2.Config
	if cand.QueueNum != pre.QueueNum || cand.PortNum != pre.PortNum {
		t.Fatalf("doubled derivation changed structure: %v", core.DiffConfigs(pre, cand))
	}

	var txn *reconfig.Txn
	net.Engine.At(20*sim.Millisecond, "grow", func(*sim.Engine) {
		txn, err = net.Reconfigure(cand)
		if err != nil {
			t.Fatalf("reconfigure: %v", err)
		}
	})
	net.Engine.At(40*sim.Millisecond, "add-flows", func(*sim.Engine) {
		if txn.State() != reconfig.StateCommitted {
			t.Fatalf("grow not committed before add: %v (%v)", txn.State(), txn.Err())
		}
		if err := net.AddFlows(extra, 45*sim.Millisecond); err != nil {
			t.Fatalf("add flows: %v", err)
		}
	})
	net.Run(0, 120*sim.Millisecond)

	sent := net.SentCounts()
	for _, s := range extra {
		if sent[s.ID] == 0 {
			t.Fatalf("added flow %d never transmitted", s.ID)
		}
	}
	ts := net.Summary(ethernet.ClassTS)
	if ts.Lost != 0 {
		t.Fatalf("TS loss after doubling flows live: %d of %d", ts.Lost, ts.Sent)
	}
	if got := net.LiveConfig(); got != cand {
		t.Fatalf("live config not the committed candidate:\n%v", core.DiffConfigs(cand, got))
	}
}

// TestReconfigureRejectsInvalid: an inapplicable candidate fails at
// Begin, before anything is staged, and the live state is untouched.
func TestReconfigureRejectsInvalid(t *testing.T) {
	reg := metrics.New()
	net, _, _ := liveRing(t, 30, false, Options{Metrics: reg})
	pre := net.LiveConfig()

	structural := pre
	structural.QueueNum++
	if _, err := net.Reconfigure(structural); err == nil {
		t.Fatal("structural change accepted")
	} else if !strings.Contains(err.Error(), "requires regeneration") {
		t.Fatalf("error = %v", err)
	}

	shrink := pre
	shrink.UnicastSize = 1 // far below the programmed flow entries
	if _, err := net.Reconfigure(shrink); err == nil {
		t.Fatal("shrink below occupancy accepted")
	}

	if d := core.DiffConfigs(pre, net.LiveConfig()); len(d) != 0 {
		t.Fatalf("rejected transactions changed live config:\n%v", d)
	}
	if swCfg := net.Switches[0].Config(); swCfg.UnicastSize != pre.UnicastSize ||
		swCfg.QueuesPerPort != pre.QueueNum {
		t.Fatalf("rejected transactions touched switch state: %+v", swCfg)
	}
	if got := reg.CounterValue(reconfig.MetricTxns, metrics.L("outcome", "rejected")); got != 2 {
		t.Fatalf("rejected counter = %d", got)
	}
}

// TestReconfigFaultInjectedRollback: the fault injector arms a mid-
// apply failure; the transaction rolls back to the exact pre-
// transaction state and traffic is unharmed.
func TestReconfigFaultInjectedRollback(t *testing.T) {
	sc, err := faults.Parse(strings.NewReader(
		`{"faults": [{"at_us": 30000, "kind": "reconfig-fail", "op": 2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	net, _, _ := liveRing(t, 60, false, Options{Metrics: reg, Faults: sc})
	pre := net.LiveConfig()

	var txn *reconfig.Txn
	net.Engine.At(40*sim.Millisecond, "grow", func(*sim.Engine) {
		txn, err = net.Reconfigure(grownConfig(pre))
		if err != nil {
			t.Fatalf("reconfigure: %v", err)
		}
	})
	net.Run(0, 100*sim.Millisecond)

	if txn.State() != reconfig.StateRolledBack {
		t.Fatalf("state = %v (%v)", txn.State(), txn.Err())
	}
	if !strings.Contains(txn.Err().Error(), "injected failure") {
		t.Fatalf("err = %v", txn.Err())
	}
	if d := core.DiffConfigs(pre, net.LiveConfig()); len(d) != 0 {
		t.Fatalf("rollback left live-config residue:\n%v", d)
	}
	swCfg := net.Switches[0].Config()
	if swCfg.UnicastSize != pre.UnicastSize || swCfg.QueueDepth != pre.QueueDepth ||
		swCfg.BuffersPerPort != pre.BufferNum {
		t.Fatalf("rollback left switch residue: %+v", swCfg)
	}
	if got := reg.CounterValue(reconfig.MetricTxns, metrics.L("outcome", "rolled-back")); got != 1 {
		t.Fatalf("rolled-back counter = %d", got)
	}
	if ts := net.Summary(ethernet.ClassTS); ts.Lost != 0 {
		t.Fatalf("TS loss across rolled-back reconfiguration: %d", ts.Lost)
	}
}

// TestWatchdogDetectsLeakFault: a buffer-leak fault injected into the
// running network is caught by the invariant watchdog and counted in
// the registry.
func TestWatchdogDetectsLeakFault(t *testing.T) {
	sc, err := faults.Parse(strings.NewReader(
		`{"faults": [{"at_us": 20000, "kind": "buffer-leak", "switch": 0, "port": 0, "slots": 2}]}`))
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	net, _, _ := liveRing(t, 30, false, Options{
		Metrics: reg, Faults: sc, EnableWatchdog: true,
	})
	net.Run(0, 50*sim.Millisecond)

	if net.Watchdog == nil {
		t.Fatal("watchdog not built")
	}
	if reg.CounterValue(reconfig.MetricViolations, metrics.L("invariant", "buffer-conservation")) == 0 {
		t.Fatalf("leak not detected: %d violations (%s)", net.Watchdog.TotalViolations(), net.Watchdog.LastDetail())
	}
	if ts := net.Summary(ethernet.ClassTS); ts.Lost != 0 {
		t.Fatalf("a two-slot leak must not cost TS frames: lost %d", ts.Lost)
	}
}

// TestDegradationShedsOnlyBE: under severe buffer pressure the
// graceful-degradation policy drops BE at ingress while every TS frame
// still arrives.
func TestDegradationShedsOnlyBE(t *testing.T) {
	reg := metrics.New()
	net, _, _ := liveRing(t, 30, true, Options{
		Metrics: reg, EnableWatchdog: true,
	})
	// Starve switch 0 (the BE sources' first hop) to just past the
	// shed-BE threshold, leaving headroom for the light TS load.
	net.Engine.At(20*sim.Millisecond, "pressure", func(*sim.Engine) {
		pool := net.Switches[0].Port(0).Pool()
		target := pool.Capacity() * 4 / 5 // 0.8 ≥ ShedBE(0.75), < ShedRC(0.90)
		pool.Leak(target - pool.InUse())
	})
	net.Run(0, 80*sim.Millisecond)

	stats := net.SwitchStats()
	if stats.Drops[tsnswitch.DropDegraded] == 0 {
		t.Fatal("degradation never shed a frame")
	}
	if got := net.Switches[0].DegradeLevel(); got != tsnswitch.DegradeShedBE {
		t.Fatalf("switch 0 level = %v, want shed-be", got)
	}
	if ts := net.Summary(ethernet.ClassTS); ts.Lost != 0 {
		t.Fatalf("degradation cost TS frames: lost %d of %d", ts.Lost, ts.Sent)
	}
	if be := net.Summary(ethernet.ClassBE); be.Received == 0 {
		t.Fatal("BE never flowed before the pressure event")
	}
	if reg.CounterValue(reconfig.MetricDegradeTransitions, metrics.L("switch", "0")) == 0 {
		t.Fatal("degradation transition not counted")
	}
}

// netState captures what a rejected AddFlows must leave alone: every
// switch's table occupancy, the programming cursor, the flow list and
// the live metrics export.
func netState(net *Net) string {
	var buf bytes.Buffer
	for _, sw := range net.Switches {
		meters := 0
		for id := 0; id < sw.Filter().Meters.Capacity(); id++ {
			if sw.Filter().Meters.Get(id) != nil {
				meters++
			}
		}
		fmt.Fprintf(&buf, "sw%d unicast=%d class=%d meters=%d\n", sw.ID(),
			sw.Forward().Unicast.Len(), sw.Filter().Class.Len(), meters)
	}
	fmt.Fprintf(&buf, "specs=%d prog=%+v pending=%d\n", len(net.talkers), net.prog, net.Engine.Pending())
	net.Metrics.Snapshot().WritePrometheus(&buf)
	return buf.String()
}

// TestAddFlowsRejectsBeforeTouchingAnything: a start in the past and a
// spec that fails Validate are returned errors, checked before the
// tables are programmed — not a panic inside the engine after they
// were (past start), and not an accepted call that panics mid-run when
// the flow's start fires (TS Offset == Period).
func TestAddFlowsRejectsBeforeTouchingAnything(t *testing.T) {
	net, _, topo := liveRing(t, 30, false, Options{Metrics: metrics.New()})
	extra := flows.GenerateTS(flows.TSParams{
		Count: 4, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
		Hosts: func(i int) (int, int) { return 100 + (i+3)%6, 100 + (i+5)%6 },
		Seed:  13,
	})
	for i, s := range extra {
		s.ID, s.VID = uint32(1000+i), uint16(2000+i)
	}
	if err := core.BindPaths(topo, extra); err != nil {
		t.Fatal(err)
	}
	invalid := *extra[3]
	invalid.Offset = invalid.Period

	checked := 0
	net.Engine.At(40*sim.Millisecond, "add-flows", func(*sim.Engine) {
		before := netState(net)
		err := net.AddFlows(extra, 5*sim.Millisecond)
		if err == nil || !strings.Contains(err.Error(), "before now") {
			t.Errorf("start in the past: err = %v", err)
		}
		err = net.AddFlows([]*flows.Spec{extra[0], &invalid}, 45*sim.Millisecond)
		if err == nil || !strings.Contains(err.Error(), "outside period") {
			t.Errorf("invalid spec: err = %v", err)
		}
		if after := netState(net); after != before {
			t.Errorf("rejected AddFlows changed the network:\n--- before\n%s--- after\n%s", before, after)
		}
		// The same flows with a start of exactly now are accepted.
		if err := net.AddFlows(extra, net.Engine.Now()); err != nil {
			t.Errorf("start == now: %v", err)
		}
		checked++
	})
	net.Run(0, 80*sim.Millisecond)
	if checked != 1 {
		t.Fatal("add-flows event did not run")
	}
	sent := net.SentCounts()
	for _, s := range extra {
		if sent[s.ID] == 0 {
			t.Fatalf("added flow %d never transmitted", s.ID)
		}
	}
	if lost := net.Summary(ethernet.ClassTS).Lost; lost != 0 {
		t.Fatalf("TS loss %d after the accepted add", lost)
	}
}

// TestRepeatedFlowIDIsRejected: a flow ID names one flow's rows, so Build
// refuses a workload that repeats one, and AddFlows a batch that repeats
// a running flow's ID or one of its own — before anything is touched.
func TestRepeatedFlowIDIsRejected(t *testing.T) {
	net, specs, topo := liveRing(t, 12, false, Options{Metrics: metrics.New()})
	twin := *specs[3]
	twin.VID = 3999
	_, err := Build(Options{Design: net.opts.Design, Topo: topo, Flows: append(specs[:len(specs):len(specs)], &twin)})
	if want := fmt.Sprintf("flow ID %d is used twice", twin.ID); err == nil || !strings.Contains(err.Error(), want) {
		t.Fatalf("Build with flow %d twice: err = %v, want %q", twin.ID, err, want)
	}

	extra := flows.GenerateTS(flows.TSParams{
		Count: 2, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
		Hosts: func(i int) (int, int) { return 101, 103 },
		Seed:  17,
	})
	for i, s := range extra {
		s.ID, s.VID = uint32(1000+i), uint16(2000+i)
	}
	again := *extra[0]
	again.VID = 2002
	if err := core.BindPaths(topo, append(extra, &twin, &again)); err != nil {
		t.Fatal(err)
	}
	checked := false
	net.Engine.At(20*sim.Millisecond, "add-flows", func(*sim.Engine) {
		before := netState(net)
		for _, c := range []struct {
			batch []*flows.Spec
			id    uint32
		}{
			{[]*flows.Spec{extra[0], &twin}, twin.ID},
			{[]*flows.Spec{extra[0], extra[1], &again}, again.ID},
		} {
			err := net.AddFlows(c.batch, net.Engine.Now())
			if want := fmt.Sprintf("flow ID %d is used twice", c.id); err == nil || !strings.Contains(err.Error(), want) {
				t.Errorf("AddFlows: err = %v, want %q", err, want)
			}
		}
		if after := netState(net); after != before {
			t.Errorf("rejected AddFlows changed the network:\n--- before\n%s--- after\n%s", before, after)
		}
		checked = true
	})
	net.Run(0, 40*sim.Millisecond)
	if !checked {
		t.Fatal("add-flows event did not run")
	}
}
