package core_test

// Per-switch dimensioning: guideline (1) applied once per switch. The
// tests are external (package core_test) so they can drive the whole
// derive → design → testbed.Build chain through internal/workload.

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/tables"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// seededParams spans all seven topologies, RC/BE background and FRER
// (bidir-ring only) over 70 deterministic parameter sets.
func seededParams() []workload.Params {
	shapes := []struct {
		topology string
		switches []int
	}{
		{"star", []int{4, 7}}, {"ring", []int{5, 8}}, {"bidir-ring", []int{6, 9}},
		{"linear", []int{4, 6}}, {"tree", []int{7, 11}}, {"mesh", []int{9, 16}}, {"fattree", []int{20, 20}},
	}
	var out []workload.Params
	for i := 0; i < 70; i++ {
		sh := shapes[i%len(shapes)]
		p := workload.Params{
			Topology: sh.topology, Switches: sh.switches[(i/7)%2],
			TSFlows: 24 + 37*i%400, Hops: 2 + i%3, WireSize: 64 + 64*(i%4), SlotUs: 65,
			RCMbps: []int{0, 40, 0, 80}[i%4], BEMbps: []int{0, 0, 60}[i%3], Seed: uint64(1000 + i),
		}
		if sh.topology == "bidir-ring" {
			p.FRERFlows = 8 * (i / 7 % 3)
		}
		out = append(out, p)
	}
	return out
}

func name(p workload.Params) string {
	return fmt.Sprintf("%s-%d×%d×%dhops/rc%d/be%d/frer%d", p.Topology, p.Switches, p.TSFlows, p.Hops, p.RCMbps, p.BEMbps, p.FRERFlows)
}

// TestPerSwitchCountsWhatIsBound: the per-switch sizes are exactly the
// hops bound through each switch, never above the network-wide
// configuration, and enough for testbed.Build to program every flow.
func TestPerSwitchCountsWhatIsBound(t *testing.T) {
	for _, p := range seededParams() {
		p := p
		t.Run(name(p), func(t *testing.T) {
			w, err := workload.Build(p)
			if err != nil {
				t.Fatal(err)
			}
			wantEntries, wantFlows := 0, 0
			for _, s := range w.Specs {
				wantEntries += len(s.Path) + len(s.AltPath)
				wantFlows += len(s.Path)
			}
			if len(w.Der.Spare) != w.Topo.N {
				t.Fatalf("spare covers %d switches of %d", len(w.Der.Spare), w.Topo.N)
			}
			cfg := w.Der.Config
			entries, meters := 0, 0
			for s := 0; s < w.Topo.N; s++ {
				local := w.Design.Local(cfg, s)
				entries += local.UnicastSize
				meters += local.MeterSize
				if local.ClassSize != local.UnicastSize {
					t.Fatalf("switch %d: class %d != unicast %d", s, local.ClassSize, local.UnicastSize)
				}
				if local.UnicastSize > cfg.UnicastSize || local.ClassSize > cfg.ClassSize || local.MeterSize > cfg.MeterSize {
					t.Fatalf("switch %d holds more than the network-wide worst case: %+v vs %+v", s, local, cfg)
				}
				local.UnicastSize, local.ClassSize, local.MeterSize = cfg.UnicastSize, cfg.ClassSize, cfg.MeterSize
				if local != cfg {
					t.Fatalf("switch %d: Local touched a parameter that is not a per-flow table: %+v vs %+v", s, local, cfg)
				}
				if sc := w.Design.SwitchConfig(s, 1); sc.UnicastSize != w.Design.Local(cfg, s).UnicastSize {
					t.Fatalf("switch %d: SwitchConfig does not materialize Local", s)
				}
			}
			if entries != wantEntries || meters != wantFlows {
				t.Fatalf("Σ entries %d (want %d = Σ len(Path)+len(AltPath)), Σ meter slots %d (want %d = Σ len(Path))",
					entries, wantEntries, meters, wantFlows)
			}
			net, err := testbed.Build(testbed.Options{Design: w.Design, Topo: w.Topo, Flows: w.Specs, Seed: p.Seed})
			if err != nil {
				t.Fatalf("the per-switch tables do not hold the workload: %v", err)
			}
			for s, sw := range net.Switches {
				c := sw.Config()
				if n := sw.Forward().Unicast.Len(); n > c.UnicastSize {
					t.Fatalf("switch %d unicast %d > %d", s, n, c.UnicastSize)
				}
				if n := sw.Filter().Class.Len(); n > c.ClassSize {
					t.Fatalf("switch %d class %d > %d", s, n, c.ClassSize)
				}
				if n := sw.Filter().Meters.RequiredCapacity(); n > c.MeterSize {
					t.Fatalf("switch %d meters %d > %d", s, n, c.MeterSize)
				}
			}
		})
	}
}

// TestPerSwitchCoincidesOnlyWhenEveryFlowCrossesEverySwitch: a ring
// whose flows traverse all of it gets the uniform answer back; the
// paper's benchmark ring (3 of 6 hops) does not — each switch carries
// about half the flows.
func TestPerSwitchCoincidesOnlyWhenEveryFlowCrossesEverySwitch(t *testing.T) {
	full, err := workload.Build(workload.Params{Topology: "ring", Switches: 6, TSFlows: 300, Hops: 6, WireSize: 64, SlotUs: 65, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 6; s++ {
		if local := full.Design.Local(full.Der.Config, s); local != full.Der.Config {
			t.Fatalf("hops == switches, switch %d: %+v != %+v", s, local, full.Der.Config)
		}
	}
	paper, err := workload.Build(workload.Params{Topology: "ring", Switches: 6, TSFlows: 1024, Hops: 3, WireSize: 64, SlotUs: 65, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	for s := 0; s < 6; s++ {
		if n := paper.Design.Local(paper.Der.Config, s).UnicastSize; n < 511 || n > 513 {
			t.Fatalf("paper ring switch %d carries %d of 1024, want 511–513", s, n)
		}
	}
}

// TestLocalIsAFunctionOfDesignAndConfig: hand-written and nil designs
// stay uniform; a derived one subtracts the same spare from whatever
// network-wide value it is asked about, clamped at zero.
func TestLocalIsAFunctionOfDesignAndConfig(t *testing.T) {
	hand, err := core.BuilderFor(core.PaperCustomizedConfig(1), nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	var none *core.Design
	for _, d := range []*core.Design{hand, none} {
		if got := d.Local(hand.Config, 3); got != hand.Config {
			t.Fatalf("uniform design: Local = %+v", got)
		}
	}
	w, err := workload.Build(workload.Params{Topology: "ring", Switches: 6, TSFlows: 16, Hops: 2, WireSize: 64, SlotUs: 65, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	cfg := w.Der.Config
	carried := w.Design.Local(cfg, 0).UnicastSize // 5 of 16
	grown := cfg
	grown.UnicastSize, grown.ClassSize, grown.MeterSize = 64, 64, 64
	if got := w.Design.Local(grown, 0); got.UnicastSize != 64-(16-carried) || got.MeterSize != 64-(16-carried) {
		t.Fatalf("grown: %+v, carried %d", got, carried)
	}
	tiny := cfg
	tiny.UnicastSize, tiny.ClassSize, tiny.MeterSize = 1, 1, 1
	if got := w.Design.Local(tiny, 0); got.UnicastSize != 0 || got.ClassSize != 0 || got.MeterSize != 0 {
		t.Fatalf("below the spare must clamp at zero: %+v", got)
	}
	if w.Design.Local(cfg, 0).UnicastSize != carried {
		t.Fatal("Local depends on what it was asked before")
	}
}

// TestPerSwitchSizesAreTight: taking one forwarding/classification
// entry from any switch that carries a flow makes the build fail with a
// table-full error naming that switch — the sizes are minimal, not just
// sufficient. Cases stay ≤ 512 flows so no (dst, VID) pair repeats.
func TestPerSwitchSizesAreTight(t *testing.T) {
	for _, p := range []workload.Params{
		{Topology: "ring", Switches: 6, TSFlows: 64, Hops: 3, WireSize: 64, SlotUs: 65, Seed: 5},
		{Topology: "mesh", Switches: 16, TSFlows: 200, Hops: 3, WireSize: 64, SlotUs: 65, RCMbps: 50, Seed: 6},
		{Topology: "bidir-ring", Switches: 6, TSFlows: 48, Hops: 3, WireSize: 64, SlotUs: 65, FRERFlows: 8, Seed: 7},
		{Topology: "fattree", Switches: 20, TSFlows: 128, Hops: 3, WireSize: 64, SlotUs: 65, Seed: 8},
	} {
		w, err := workload.Build(p)
		if err != nil {
			t.Fatal(err)
		}
		carrying := 0
		for s := 0; s < w.Topo.N; s++ {
			if w.Design.Local(w.Der.Config, s).UnicastSize == 0 {
				continue
			}
			carrying++
			w.Der.Spare[s].Entries++ // the design shares the slice
			_, err := testbed.Build(testbed.Options{Design: w.Design, Topo: w.Topo, Flows: w.Specs, Seed: p.Seed})
			w.Der.Spare[s].Entries--
			if !errors.Is(err, tables.ErrTableFull) || !strings.Contains(err.Error(), fmt.Sprintf("switch %d:", s)) {
				t.Fatalf("%s: one entry less on switch %d: err = %v", name(p), s, err)
			}
		}
		if carrying == 0 {
			t.Fatalf("%s: no switch carries anything", name(p))
		}
		if _, err := testbed.Build(testbed.Options{Design: w.Design, Topo: w.Topo, Flows: w.Specs, Seed: p.Seed}); err != nil {
			t.Fatalf("%s: restored sizes: %v", name(p), err)
		}
	}
}
