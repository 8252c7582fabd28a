package testbed

import (
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/clock"
	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

func TestCQFBound(t *testing.T) {
	slot := 65 * sim.Microsecond
	for _, tc := range []struct {
		h      int
		lo, hi sim.Time
	}{{1, 0, 2 * slot}, {3, 2 * slot, 4 * slot}, {4, 3 * slot, 5 * slot}} {
		if lo, hi := CQFBound(tc.h, slot); lo != tc.lo || hi != tc.hi {
			t.Errorf("CQFBound(%d) = [%v, %v], want [%v, %v]", tc.h, lo, hi, tc.lo, tc.hi)
		}
	}
}

// checkSide asserts that out is non-empty and that every violation
// broke side on a 4-switch path (ringScenario's 3 hops) and says so.
func checkSide(t *testing.T, out []BoundViolation, side string) {
	t.Helper()
	if len(out) == 0 {
		t.Fatalf("no flow broke the %s side of Eq. (1)", side)
	}
	for _, v := range out {
		msg := v.String()
		if v.Side != side || v.H != 4 || !strings.Contains(msg, "h=4") || !strings.Contains(msg, side+" bound") {
			t.Fatalf("want the %s side at h=4, got %s", side, msg)
		}
	}
}

// TestCQFBoundLowerSide: E-DESYNC's 8 µs offset on every other switch
// lets frames skip a slot, so the fastest delivery beats (h−1)·T.
func TestCQFBoundLowerSide(t *testing.T) {
	net, _ := ringScenario(t, 120, 3, false)
	for s, sw := range net.Switches {
		if s%2 == 1 {
			sw.Clock = clock.New(0, 8*sim.Microsecond)
		}
	}
	net.Run(0, 30*sim.Millisecond)
	checkSide(t, net.CheckCQFBound(), "lower")
}

// TestCQFBoundUpperSide: with every TS flow injected at offset zero, a
// slot's frames cannot drain within the next slot, and a queue deep
// enough not to drop makes them wait past (h+1)·T.
func TestCQFBoundUpperSide(t *testing.T) {
	topo := topology.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h)
	}
	specs := flows.GenerateTS(flows.TSParams{
		Count: 600, Period: 10 * sim.Millisecond, WireSize: 256, VID: 1,
		Hosts: func(i int) (int, int) { return 100 + i%6, 100 + (i%6+3)%6 },
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
	cfg := der.Config // the plan's offsets are never applied
	cfg.QueueDepth, cfg.BufferNum = 1024, 1024*cfg.QueueNum
	design, err := core.BuilderFor(cfg, nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	net, err := Build(Options{Design: design, Topo: topo, Flows: specs})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0, 30*sim.Millisecond)
	if lost := net.Summary(specs[0].Class).Lost; lost != 0 {
		t.Fatalf("%d TS frames dropped: the queue must hold them", lost)
	}
	out := net.CheckCQFBound()
	checkSide(t, out, "upper")
	for _, v := range out {
		if v.Worst.Total() != v.Measured || !strings.Contains(v.String(), "Queue:") {
			t.Fatalf("worst delivery not decomposed: %v", v)
		}
	}
}

// TestCQFBoundFRERShorterPath: an FRER flow is held to its shorter
// member path, whose copy arrives first and is the one delivered.
func TestCQFBoundFRERShorterPath(t *testing.T) {
	topo := topology.RingBidir(6)
	topo.AttachHost(100, 0)
	topo.AttachHost(101, 2)
	specs := flows.GenerateTS(flows.TSParams{
		Count: 6, Period: sim.Millisecond, WireSize: 128, VID: 1,
		Hosts: func(int) (int, int) { return 100, 101 },
		Seed:  11,
	})
	for i, s := range specs {
		s.VID, s.FRER, s.AltVID = uint16(1+i), true, uint16(1000+i)
	}
	net := buildNet(t, topo, specs, Options{})
	if len(specs[0].Path) != 3 || len(specs[0].AltPath) != 5 {
		t.Fatalf("member paths %v and %v, want 3 and 5 switches", specs[0].Path, specs[0].AltPath)
	}
	net.Run(0, 20*sim.Millisecond)
	if out := net.CheckCQFBound(); len(out) > 0 {
		t.Fatalf("%d sides of Eq. (1) broken, first %v", len(out), out[0])
	}
}
