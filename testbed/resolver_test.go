package testbed

import (
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tas"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// TestUnresolvablePathsRejected: a path with a hop pair no trunk joins,
// and a path that ends off its destination host's switch, are refused
// by the derivation, the testbed and the TAS synthesizer alike, each
// with topology.Egress's own error.
func TestUnresolvablePathsRejected(t *testing.T) {
	for _, tc := range []struct {
		name string
		path []int
	}{
		{"no trunk", []int{0, 2, 3}},
		{"off host", []int{0, 1, 2}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			topo := topology.Linear(4)
			for h := 0; h < 4; h++ {
				topo.AttachHost(100+h, h)
			}
			specs := flows.GenerateTS(flows.TSParams{
				Count: 4, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
				Hosts: func(i int) (int, int) { return 100, 103 },
				Seed:  1,
			})
			if err := core.BindPaths(topo, specs); err != nil {
				t.Fatal(err)
			}
			bad := specs[len(specs)-1]
			bad.Path = tc.path
			var want error
			for h := range bad.Path {
				if _, want = topo.Egress(bad.Path, bad.DstHost, h); want != nil {
					break
				}
			}
			if want == nil {
				t.Fatalf("path %v resolves", tc.path)
			}

			_, err := core.DeriveConfig(core.Scenario{Topo: topo, Flows: specs})
			mustCarry(t, "core.DeriveConfig", err, want)
			_, err = tas.Synthesize(specs, topo, tas.Options{})
			mustCarry(t, "tas.Synthesize", err, want)
			bad.Path = []int{0, 1, 2, 3}
			der, err := core.DeriveConfig(core.Scenario{Topo: topo, Flows: specs})
			if err != nil {
				t.Fatal(err)
			}
			design, err := der.Design(nil)
			if err != nil {
				t.Fatal(err)
			}
			bad.Path = tc.path
			_, err = Build(Options{Design: design, Topo: topo, Flows: specs, Seed: 1})
			mustCarry(t, "testbed.Build", err, want)
		})
	}
}

func mustCarry(t *testing.T, who string, err, want error) {
	t.Helper()
	if err == nil || !strings.Contains(err.Error(), want.Error()) {
		t.Errorf("%s: error %v, want one carrying %q", who, err, want)
	}
}
