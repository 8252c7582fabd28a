package testbed

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// ringScenario builds a 6-switch ring with one host per switch and
// nTS planned TS flows of hop length hops.
func ringScenario(t *testing.T, nTS, hops int, withGPTP bool) (*Net, []*flows.Spec) {
	t.Helper()
	topo := topology.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h)
	}
	specs := flows.GenerateTS(flows.TSParams{
		Count:    nTS,
		Period:   10 * sim.Millisecond,
		WireSize: 64,
		VID:      1,
		Hosts: func(i int) (int, int) {
			src := i % 6
			return 100 + src, 100 + (src+hops)%6
		},
		Seed: 11,
	})
	// Distinct VIDs keep per-flow classification entries distinct.
	for i, s := range specs {
		s.VID = uint16(1 + i%4000)
	}
	return buildNet(t, topo, specs, Options{EnableGPTP: withGPTP, Seed: 5}), specs
}

// buildNet binds specs to paths on topo, derives and applies the
// design, and builds the network; opts carries everything else.
func buildNet(t *testing.T, topo *topology.Topology, specs []*flows.Spec, opts Options) *Net {
	t.Helper()
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
	opts.Design, opts.Topo, opts.Flows = design, topo, specs
	net, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	return net
}

func TestRingZeroLossWithinBounds(t *testing.T) {
	net, _ := ringScenario(t, 120, 3, false)
	net.Run(0, 100*sim.Millisecond)
	ts := net.Summary(ethernet.ClassTS)
	if ts.Sent == 0 {
		t.Fatal("nothing sent")
	}
	if ts.Lost != 0 {
		t.Fatalf("TS loss = %d of %d (drops %+v)", ts.Lost, ts.Sent, net.SwitchStats().Drops)
	}
	if out := net.CheckCQFBound(); len(out) > 0 {
		t.Fatalf("%d sides of Eq. (1) broken, first %v", len(out), out[0])
	}
	if ts.DeadlineMisses != 0 {
		t.Fatalf("deadline misses = %d", ts.DeadlineMisses)
	}
}

func TestRingLatencyGrowsWithHops(t *testing.T) {
	mean := func(hops int) sim.Time {
		net, _ := ringScenario(t, 60, hops, false)
		net.Run(0, 100*sim.Millisecond)
		s := net.Summary(ethernet.ClassTS)
		if s.Lost != 0 {
			t.Fatalf("hops=%d lost %d", hops, s.Lost)
		}
		return s.MeanLatency
	}
	m1, m3 := mean(1), mean(3)
	if m3 <= m1 {
		t.Fatalf("latency did not grow with hops: %v vs %v", m1, m3)
	}
	// Roughly ∝ path length (2 vs 4 switches): ratio in [1.5, 3].
	ratio := float64(m3) / float64(m1)
	if ratio < 1.5 || ratio > 3 {
		t.Fatalf("hop scaling ratio = %.2f", ratio)
	}
}

func TestRingWithGPTPMatchesPerfectClocks(t *testing.T) {
	run := func(gptpOn bool) sim.Time {
		net, _ := ringScenario(t, 60, 2, gptpOn)
		warmup := sim.Time(0)
		if gptpOn {
			warmup = 2 * sim.Second // let the servo converge
		}
		net.Run(warmup, 50*sim.Millisecond)
		s := net.Summary(ethernet.ClassTS)
		if s.Lost != 0 {
			t.Fatalf("gptp=%v lost %d", gptpOn, s.Lost)
		}
		return s.MeanLatency
	}
	perfect, synced := run(false), run(true)
	// Sub-50 ns clock error is invisible at 65 µs slots: means must
	// agree within one slot.
	diff := perfect - synced
	if diff < 0 {
		diff = -diff
	}
	if diff > 65*sim.Microsecond {
		t.Fatalf("gPTP changed mean latency: %v vs %v", perfect, synced)
	}
}

func TestQueueHighWaterWithinDepth(t *testing.T) {
	net, specs := ringScenario(t, 200, 4, false)
	net.Run(0, 100*sim.Millisecond)
	depth := net.opts.Design.Config.QueueDepth
	if hw := net.MaxQueueHighWater(); hw > depth {
		t.Fatalf("queue high water %d exceeded provisioned depth %d", hw, depth)
	}
	// ITP plan promised occupancy ≤ depth, even with each switch's
	// ports merged: count the TS packets per (switch, slot) over the one
	// 10 ms period every flow shares.
	slot, occ := 65*sim.Microsecond, 0
	perSlot := map[[2]sim.Time]int{}
	for _, s := range specs {
		for h, sw := range s.Path {
			k := [2]sim.Time{sim.Time(sw), (s.Offset/slot + sim.Time(h)) % (s.Period / slot)}
			perSlot[k]++
			occ = max(occ, perSlot[k])
		}
	}
	if occ > depth {
		t.Fatalf("planned occupancy %d exceeds depth %d", occ, depth)
	}
}

func TestBackgroundDoesNotDisturbTS(t *testing.T) {
	// The Fig. 2 / Fig. 7(d) shape: adding RC+BE background leaves TS
	// latency and jitter unchanged and loss zero.
	build := func(bg bool) (*Net, []*flows.Spec) {
		topo := topology.Ring(6)
		for h := 0; h < 6; h++ {
			topo.AttachHost(100+h, h)
		}
		specs := flows.GenerateTS(flows.TSParams{
			Count: 60, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
			Hosts: func(i int) (int, int) { return 100 + i%6, 100 + (i+2)%6 },
			Seed:  11,
		})
		for i, s := range specs {
			s.VID = uint16(1 + i)
		}
		if bg {
			id := uint32(5000)
			for src := 0; src < 3; src++ {
				rc := flows.Background(id, ethernet.ClassRC, 100+src, 100+(src+2)%6, uint16(3000+src), 150*ethernet.Mbps)
				id++
				be := flows.Background(id, ethernet.ClassBE, 100+src, 100+(src+2)%6, uint16(3100+src), 150*ethernet.Mbps)
				id++
				specs = append(specs, rc, be)
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
		net, err := Build(Options{Design: design, Topo: topo, Flows: specs})
		if err != nil {
			t.Fatal(err)
		}
		return net, specs
	}
	quiet, _ := build(false)
	quiet.Run(0, 100*sim.Millisecond)
	loaded, _ := build(true)
	loaded.Run(0, 100*sim.Millisecond)

	q, l := quiet.Summary(ethernet.ClassTS), loaded.Summary(ethernet.ClassTS)
	if q.Lost != 0 || l.Lost != 0 {
		t.Fatalf("TS loss: quiet %d loaded %d", q.Lost, l.Lost)
	}
	diff := q.MeanLatency - l.MeanLatency
	if diff < 0 {
		diff = -diff
	}
	if diff > 10*sim.Microsecond {
		t.Fatalf("background shifted TS latency: %v vs %v", q.MeanLatency, l.MeanLatency)
	}
	// BE traffic must actually have flowed.
	be := loaded.Summary(ethernet.ClassBE)
	if be.Received == 0 {
		t.Fatal("background BE never arrived")
	}
}

func TestStarTopologyEndToEnd(t *testing.T) {
	topo := topology.Star(3)
	for h := 1; h <= 3; h++ {
		topo.AttachHost(100+h, h)
	}
	specs := flows.GenerateTS(flows.TSParams{
		Count: 90, Period: 10 * sim.Millisecond, WireSize: 128, VID: 1,
		Hosts: func(i int) (int, int) { return 101 + i%3, 101 + (i+1)%3 },
		Seed:  9,
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
	if design.Config.PortNum != 3 {
		t.Fatalf("star PortNum = %d", design.Config.PortNum)
	}
	net, err := Build(Options{Design: design, Topo: topo, Flows: specs})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0, 100*sim.Millisecond)
	s := net.Summary(ethernet.ClassTS)
	if s.Lost != 0 || s.Received == 0 {
		t.Fatalf("star summary = %+v (drops %+v)", s, net.SwitchStats().Drops)
	}
}

func TestBuildErrors(t *testing.T) {
	if _, err := Build(Options{}); err == nil {
		t.Error("empty options accepted")
	}
	topo := topology.Ring(3)
	topo.AttachHost(100, 0)
	design, _ := core.BuilderFor(core.PaperCustomizedConfig(1), nil).Build()
	spec := &flows.Spec{ID: 1, Class: ethernet.ClassTS, WireSize: 64,
		Period: sim.Millisecond, SrcHost: 100, DstHost: 100}
	// Path not bound.
	if _, err := Build(Options{Design: design, Topo: topo, Flows: []*flows.Spec{spec}}); err == nil {
		t.Error("unbound path accepted")
	}
}

func TestNoReorderingInDataplane(t *testing.T) {
	// A single-path TSN dataplane must deliver every flow in order —
	// the analyzer's sequence tracker verifies it network-wide.
	net, _ := ringScenario(t, 200, 4, false)
	net.Run(0, 100*sim.Millisecond)
	for _, st := range net.Collector.Flows() {
		if st.Reordered != 0 {
			t.Fatalf("flow %d reordered %d frames", st.FlowID, st.Reordered)
		}
		if st.SeqGaps != 0 {
			t.Fatalf("flow %d has %d sequence gaps without loss", st.FlowID, st.SeqGaps)
		}
	}
}

func TestNoBufferLeaks(t *testing.T) {
	// After traffic stops and the drain window passes, every buffer
	// must be back in its pool — across CQF, background traffic and
	// meter/queue drops.
	net, _ := ringScenario(t, 150, 3, false)
	net.Run(0, 100*sim.Millisecond)
	if err := net.CheckBufferLeaks(); err != nil {
		t.Fatal(err)
	}
}

func TestTreeTopologyEndToEnd(t *testing.T) {
	// Two spines with two leaves each; control loops between leaves of
	// different spines cross four trunks.
	// Tree(2,2): root 0; spine 1 with leaves 2,3; spine 4 with leaves 5,6.
	topo := topology.Tree(2, 2)
	leaves := []int{2, 3, 5, 6}
	for i, leaf := range leaves {
		topo.AttachHost(100+i, leaf)
	}
	specs := flows.GenerateTS(flows.TSParams{
		Count: 64, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
		Hosts: func(i int) (int, int) { return 100 + i%4, 100 + (i+2)%4 },
		Seed:  17,
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
	if design.Config.PortNum != 3 { // spine: 2 downlinks + 1 uplink
		t.Fatalf("tree PortNum = %d", design.Config.PortNum)
	}
	net, err := Build(Options{Design: design, Topo: topo, Flows: specs, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0, 100*sim.Millisecond)
	s := net.Summary(ethernet.ClassTS)
	if s.Lost != 0 || s.Received == 0 {
		t.Fatalf("tree summary = %+v (drops %+v)", s, net.SwitchStats().Drops)
	}
	// Cross-spine paths traverse 5 switches: latency ≈ 5 slots mean.
	if s.MaxLat > 6*65*sim.Microsecond {
		t.Fatalf("tree max latency %v", s.MaxLat)
	}
	if err := net.CheckBufferLeaks(); err != nil {
		t.Fatal(err)
	}
}
