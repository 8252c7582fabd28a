// Package workload constructs the canonical tsnsim workload — topology,
// attached hosts, TS flow set with optional FRER coverage and RC/BE
// background, derived configuration and built design — from a compact
// parameter set. It is the single definition cmd/tsnsim, the chaos
// campaign engine, the tsnserve instance and internal/experiments (the
// paper's 6-switch ring is Topology "ring", Switches 6) all build from,
// which is what makes a chaos case replayable through plain tsnsim
// flags: the same Params always produce byte-identical flow sets and
// designs.
package workload

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// MaxFRERFlows caps how many TS flows can carry FRER redundancy: each
// member stream needs its own alternate VID from the band above the TS
// VID space (4001..4064).
const MaxFRERFlows = 64

// Params selects one workload. Every field maps 1:1 to a tsnsim flag,
// so any Params value is expressible as a command line.
type Params struct {
	// Topology is one of star, ring, bidir-ring, linear, tree, mesh,
	// fattree.
	Topology string
	// Switches is the node count (star children = Switches-1, tree
	// leaves = (Switches-3)/2, mesh the squarest grid of exactly this
	// many nodes, fattree the smallest even arity reaching it).
	Switches int
	// TSFlows is the TS flow count.
	TSFlows int
	// Hops is how many switches each TS flow traverses.
	Hops int
	// WireSize is the TS frame size in bytes.
	WireSize int
	// SlotUs is the CQF slot in microseconds.
	SlotUs int
	// RCMbps/BEMbps are the per-injector background rates (up to three
	// injectors each).
	RCMbps, BEMbps int
	// FRERFlows makes the first min(FRERFlows, TSFlows, MaxFRERFlows)
	// TS flows 802.1CB-redundant (bidir-ring topologies only: the
	// alternate member stream needs a link-disjoint path).
	FRERFlows int
	// TSDeadline, when positive, overrides every TS flow's deadline.
	TSDeadline sim.Time
	// Seed drives deadline assignment (and clock drift downstream).
	Seed uint64
}

// Built is a constructed workload ready for testbed.Build.
type Built struct {
	Topo   *topology.Topology
	Specs  []*flows.Spec
	Der    *core.Derivation
	Design *core.Design
	// FRERFlows is the effective (capped) redundant-flow count.
	FRERFlows int
}

// Build constructs the workload deterministically from p. The
// construction order — topology, hosts 100+h/200+h per switch, TS flows
// with VID 1+i%4000, FRER tagging, background flows from id 100000,
// path binding, derivation, plan application, deadline override, design
// build — is load-bearing: cmd/tsnsim produced exactly this sequence
// before the extraction, and replay equivalence depends on keeping it.
func Build(p Params) (*Built, error) {
	var topo *topology.Topology
	switch p.Topology {
	case "star":
		topo = topology.Star(p.Switches - 1)
	case "ring":
		topo = topology.Ring(p.Switches)
	case "bidir-ring":
		topo = topology.RingBidir(p.Switches)
	case "linear":
		topo = topology.Linear(p.Switches)
	case "tree":
		topo = topology.Tree(2, (p.Switches-3)/2)
	case "mesh":
		topo = topology.MeshSquarish(p.Switches)
	case "fattree":
		topo = topology.FatTreeAtLeast(p.Switches)
	default:
		return nil, fmt.Errorf("unknown topology %q", p.Topology)
	}
	n := topo.N
	for h := 0; h < n; h++ {
		topo.AttachHost(100+h, h)
		topo.AttachHost(200+h, h)
	}

	specs := flows.GenerateTS(flows.TSParams{
		Count:    p.TSFlows,
		Period:   10 * sim.Millisecond,
		WireSize: p.WireSize,
		VID:      1,
		Hosts: func(i int) (int, int) {
			src := i % n
			return 100 + src, 100 + (src+p.Hops-1)%n
		},
		Seed: p.Seed,
	})
	for i, s := range specs {
		s.VID = uint16(1 + i%4000)
	}
	frerN := p.FRERFlows
	if frerN > len(specs) {
		frerN = len(specs)
	}
	if frerN > MaxFRERFlows {
		frerN = MaxFRERFlows
	}
	for i := 0; i < frerN; i++ {
		specs[i].FRER = true
		specs[i].AltVID = uint16(4001 + i)
	}
	id := uint32(100_000)
	for srcIdx := 0; srcIdx < 3 && srcIdx < n; srcIdx++ {
		if p.RCMbps > 0 {
			specs = append(specs, flows.Background(id, ethernet.ClassRC,
				200+srcIdx, 100+(srcIdx+p.Hops-1)%n, uint16(3000+srcIdx),
				ethernet.Rate(p.RCMbps)*ethernet.Mbps))
			id++
		}
		if p.BEMbps > 0 {
			specs = append(specs, flows.Background(id, ethernet.ClassBE,
				200+srcIdx, 100+(srcIdx+p.Hops-1)%n, uint16(3200+srcIdx),
				ethernet.Rate(p.BEMbps)*ethernet.Mbps))
			id++
		}
	}
	if err := core.BindPaths(topo, specs); err != nil {
		return nil, err
	}
	der, err := core.DeriveConfig(core.Scenario{
		Topo: topo, Flows: specs,
		SlotSize: sim.Time(p.SlotUs) * sim.Microsecond,
	})
	if err != nil {
		return nil, err
	}
	der.Plan.Apply(specs)
	if p.TSDeadline > 0 {
		for _, s := range specs {
			if s.Class == ethernet.ClassTS {
				s.Deadline = sim.Time(p.TSDeadline)
			}
		}
	}
	design, err := der.Design(nil)
	if err != nil {
		return nil, err
	}
	return &Built{Topo: topo, Specs: specs, Der: der, Design: design, FRERFlows: frerN}, nil
}
