package workload

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/israce"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// ring6 is a small valid workload the rejection cases start from.
func ring6() Params {
	return Params{Topology: "ring", Switches: 6, TSFlows: 16, Hops: 3, WireSize: 64, SlotUs: 65, Seed: 1}
}

// rejected lists inputs Build must refuse with an error. The first
// group are tsnsim, tsnserve and /v1/derive inputs on which a topology
// or flow constructor panics: Build must refuse them before any runs.
var rejected = []struct {
	name string
	mut  func(*Params)
}{
	{"derive ring/2", func(p *Params) { p.Switches, p.TSFlows, p.Hops, p.WireSize = 2, 4, 2, 200 }},
	{"derive bidir-ring/2", func(p *Params) { p.Topology, p.Switches, p.Hops = "bidir-ring", 2, 2 }},
	{"tsnsim -switches 2", func(p *Params) { p.Switches, p.Hops = 2, 2 }},
	{"tsnsim -flows 0", func(p *Params) { p.TSFlows = 0 }},
	{"tsnsim -topology star -switches 1", func(p *Params) { p.Topology, p.Switches, p.Hops = "star", 1, 1 }},
	{"tsnsim -topology mesh -switches 1", func(p *Params) { p.Topology, p.Switches, p.Hops = "mesh", 1, 1 }},
	{"tsnserve -topology ring -switches 2", func(p *Params) { p.Switches, p.Hops = 2, 2 }},
	{"tsnserve -flows 0", func(p *Params) { p.Topology, p.Switches, p.TSFlows, p.Hops = "linear", 4, 0, 2 }},
	{"tree/1", func(p *Params) { p.Topology, p.Switches, p.Hops = "tree", 1, 1 }},
	{"linear/1", func(p *Params) { p.Topology, p.Switches, p.Hops = "linear", 1, 1 }},

	{"unknown topology", func(p *Params) { p.Topology = "moebius" }},
	{"no topology", func(p *Params) { p.Topology = "" }},
	{"negative switches", func(p *Params) { p.Switches = -6 }},
	{"negative flows", func(p *Params) { p.TSFlows = -1 }},
	{"hops 0", func(p *Params) { p.Hops = 0 }},
	{"hops above switches", func(p *Params) { p.Hops = 7 }},
	{"wire size 63", func(p *Params) { p.WireSize = 63 }},
	{"wire size 1519", func(p *Params) { p.WireSize = 1519 }},
	{"negative slot", func(p *Params) { p.SlotUs = -65 }},
	{"negative rc", func(p *Params) { p.RCMbps = -1 }},
	{"negative be", func(p *Params) { p.BEMbps = -1 }},
	{"negative frer", func(p *Params) { p.Topology, p.FRERFlows = "bidir-ring", -1 }},
	{"negative deadline", func(p *Params) { p.TSDeadline = -sim.Microsecond }},
	{"frer off the bidir ring", func(p *Params) { p.FRERFlows = 2 }},
	{"frer within one switch", func(p *Params) { p.Topology, p.Hops, p.FRERFlows = "bidir-ring", 1, 2 }},
}

// TestBuildRejectsWithoutPanic: every rejected input is an error from
// both Validate and Build, never a panic.
func TestBuildRejectsWithoutPanic(t *testing.T) {
	for _, tc := range rejected {
		p := ring6()
		tc.mut(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, p)
		}
		if _, err := Build(p); err == nil {
			t.Errorf("%s: Build accepted %+v", tc.name, p)
		}
	}
}

// TestEveryTopologyBuildsAtItsFloor: the smallest accepted network of
// every shape builds, with FRER on the bidirectional ring.
func TestEveryTopologyBuildsAtItsFloor(t *testing.T) {
	for _, p := range []Params{
		{Topology: "star", Switches: 2},
		{Topology: "ring", Switches: 3},
		{Topology: "bidir-ring", Switches: 3, FRERFlows: 2},
		{Topology: "linear", Switches: 2},
		{Topology: "tree", Switches: 2},
		{Topology: "mesh", Switches: 2},
		{Topology: "fattree", Switches: 1},
	} {
		p.TSFlows, p.Hops, p.WireSize, p.SlotUs = 4, p.Switches, 64, 65
		if _, err := Build(p); err != nil {
			t.Errorf("%s/%d: %v", p.Topology, p.Switches, err)
		}
	}
}

// FuzzBuild: Validate never panics, and Build errors exactly when
// Validate does. Build runs only on networks small enough to keep an
// iteration cheap.
func FuzzBuild(f *testing.F) {
	add := func(p Params) {
		f.Add(p.Topology, p.Switches, p.TSFlows, p.Hops, p.WireSize, p.SlotUs,
			p.RCMbps, p.BEMbps, p.FRERFlows, int64(p.TSDeadline), p.Seed)
	}
	add(ring6())
	add(Params{Topology: "bidir-ring", Switches: 4, TSFlows: 8, Hops: 2, WireSize: 128, FRERFlows: 8, RCMbps: 100, BEMbps: 100})
	add(Params{Topology: "fattree", Switches: 1, TSFlows: 1, Hops: 1, WireSize: 1518, SlotUs: 1000})
	for _, tc := range rejected {
		p := ring6()
		tc.mut(&p)
		add(p)
	}
	f.Fuzz(func(t *testing.T, topo string, sw, ts, hops, wire, slot, rc, be, frer int, deadline int64, seed uint64) {
		p := Params{Topology: topo, Switches: sw, TSFlows: ts, Hops: hops, WireSize: wire, SlotUs: slot,
			RCMbps: rc, BEMbps: be, FRERFlows: frer, TSDeadline: sim.Time(deadline), Seed: seed}
		verr := p.Validate()
		if p.Switches > 32 || p.TSFlows > 128 {
			return
		}
		if _, err := Build(p); (err == nil) != (verr == nil) {
			t.Fatalf("%+v: Validate says %v, Build says %v", p, verr, err)
		}
	})
}

// TestDeriveAllocs pins what a derivation allocates: building a
// derive-cold-shaped workload — ring of 10, hops 3, /v1/derive's
// defaults — costs the same count at 64 and at 440 TS flows, at most
// 34: the topology, specs, paths, plan and design it returns, and no
// scaffolding that grows with the network or the flow count.
func TestDeriveAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	allocs := func(flows int) float64 {
		p := Params{Topology: "ring", Switches: 10, TSFlows: flows, Hops: 3, WireSize: 200, SlotUs: 65, Seed: 42}
		return testing.AllocsPerRun(20, func() {
			if _, err := Build(p); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(440)
	if small != large || small > 34 {
		t.Fatalf("Build allocates %v times for 64 flows, %v for 440; want the same, at most 34", small, large)
	}
	t.Logf("%v allocations per Build", small)
}
