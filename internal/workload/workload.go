// Package workload constructs the canonical workload — topology,
// attached hosts, TS flow set with optional FRER coverage and RC/BE
// background, derived configuration and built design — from a compact
// parameter set. It is the single definition cmd/tsnsim, cmd/tsnbuild,
// cmd/tsntas (which stops at Scenario), cmd/tsnserve, the chaos
// campaign engine, the tsnserve instance and internal/experiments (the
// paper's 6-switch ring is Topology "ring", Switches 6) all build from,
// and Params.Bind is the one set of flags the commands describe it
// with. That is what makes a chaos case replayable through plain
// tsnsim flags: the same Params always produce byte-identical flow
// sets and designs.
package workload

import (
	"flag"
	"fmt"
	"strings"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// Period is every TS flow's period. A workload with another or a mixed
// period is a scenariofile spec.
const Period = 10 * sim.Millisecond

// MaxFRERFlows caps how many TS flows can carry FRER redundancy: each
// member stream needs its own alternate VID from the band above the TS
// VID space (4001..4064).
const MaxFRERFlows = 64

// Params selects one workload. It is the one scenario shape: a
// command line (Bind's flags, plus tsnsim's -rc, -be, -frer and
// -ts-deadline), a chaos case (which embeds it) and a POST /v1/derive
// body (svc.Spec is this type, whose JSON tags it carries) all
// describe a workload as a Params.
type Params struct {
	// Topology is one of topology.Names.
	Topology string `json:"topology"`
	// Switches is the node count, at least the shape's floor
	// (topology.Kind.Floor); see topology.New for what each shape
	// builds from it.
	Switches int `json:"switches"`
	// TSFlows is the TS flow count.
	TSFlows int `json:"ts_flows"`
	// Hops is how many switches each TS flow traverses.
	Hops int `json:"hops,omitempty"`
	// WireSize is the TS frame size in bytes.
	WireSize int `json:"wire_size,omitempty"`
	// SlotUs is the CQF slot in microseconds.
	SlotUs int `json:"slot_us,omitempty"`
	// RCMbps/BEMbps are the per-injector background rates (up to three
	// injectors each).
	RCMbps int `json:"rc_mbps,omitempty"`
	BEMbps int `json:"be_mbps,omitempty"`
	// FRERFlows makes the first min(FRERFlows, TSFlows, MaxFRERFlows)
	// TS flows 802.1CB-redundant (bidir-ring topologies only: the
	// alternate member stream needs a link-disjoint path).
	FRERFlows int `json:"frer_flows,omitempty"`
	// TSDeadline, when positive, overrides every TS flow's deadline.
	TSDeadline sim.Time `json:"ts_deadline_ns,omitempty"`
	// Seed drives deadline assignment (and clock drift downstream).
	Seed uint64 `json:"seed,omitempty"`
}

// Bind registers the scenario flags on fs — -topology, -switches,
// -flows, -hops, -size, -slot and -seed — each defaulting to p's
// current value and parsing into p. Every command that builds a
// workload binds them here, so each command keeps its own defaults and
// a flag means the same thing in all of them.
func (p *Params) Bind(fs *flag.FlagSet) {
	fs.StringVar(&p.Topology, "topology", p.Topology, "topology: one of "+strings.Join(topology.Names, ", "))
	fs.IntVar(&p.Switches, "switches", p.Switches, "switch count (a star has switches-1 children)")
	fs.IntVar(&p.TSFlows, "flows", p.TSFlows, "TS flow count")
	fs.IntVar(&p.Hops, "hops", p.Hops, "switches each TS flow traverses")
	fs.IntVar(&p.WireSize, "size", p.WireSize, "TS frame size (bytes)")
	fs.IntVar(&p.SlotUs, "slot", p.SlotUs, "CQF slot (µs)")
	fs.Uint64Var(&p.Seed, "seed", p.Seed, "workload seed")
}

// Validate holds every structural rule a workload must meet to build:
// a known topology at or above its switch floor, at least one TS flow,
// hops within the network, an Ethernet frame size, no negative rate,
// count, slot or deadline, and FRER only on the bidirectional ring
// between distinct switches.
func (p Params) Validate() error {
	k, err := topology.Parse(p.Topology)
	switch {
	case err != nil:
		return err
	case p.Switches < k.Floor():
		return fmt.Errorf("workload: %s needs at least %d switches, have %d", p.Topology, k.Floor(), p.Switches)
	case p.TSFlows < 1:
		return fmt.Errorf("workload: ts_flows %d < 1", p.TSFlows)
	case p.Hops < 1 || p.Hops > p.Switches:
		return fmt.Errorf("workload: hops %d out of [1,%d]", p.Hops, p.Switches)
	case p.WireSize < 64 || p.WireSize > 1518:
		return fmt.Errorf("workload: wire_size %d out of [64,1518]", p.WireSize)
	case p.SlotUs < 0 || p.RCMbps < 0 || p.BEMbps < 0 || p.FRERFlows < 0 || p.TSDeadline < 0:
		return fmt.Errorf("workload: negative slot_us, rc_mbps, be_mbps, frer_flows or ts_deadline_ns")
	case p.FRERFlows > 0 && (k != topology.KindRingBidir || p.Hops < 2):
		return fmt.Errorf("workload: frer_flows requires the %v topology and hops >= 2", topology.KindRingBidir)
	}
	return nil
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

// Host numbers the two hosts Build attaches to switch sw: the TS host
// 100+sw, which sources and sinks the TS flows and sinks the RC/BE
// background, and the background host 200+sw, which sources it.
func Host(sw int, background bool) int {
	if background {
		return 200 + sw
	}
	return 100 + sw
}

// Scenario builds the first half of Build: the topology, both hosts
// per switch, the TS flows with VID 1+i%4000 and their FRER tagging,
// the background flows from id 100000, and every path bound. Der and
// Design are left nil. cmd/tsntas schedules this flow set as it stands.
func Scenario(p Params) (*Built, error) {
	if err := p.Validate(); err != nil {
		return nil, err
	}
	topo, _ := topology.New(p.Topology, p.Switches) // Validate checked name and floor
	n := topo.N
	for h := 0; h < n; h++ {
		topo.AttachHost(Host(h, false), h)
		topo.AttachHost(Host(h, true), h)
	}

	specs := flows.GenerateTS(flows.TSParams{
		Count:    p.TSFlows,
		Period:   Period,
		WireSize: p.WireSize,
		VID:      1,
		Hosts: func(i int) (int, int) {
			src := i % n
			return Host(src, false), Host((src+p.Hops-1)%n, false)
		},
		Seed: p.Seed,
	})
	for i, s := range specs {
		s.VID = uint16(1 + i%4000)
	}
	frerN := min(p.FRERFlows, len(specs), MaxFRERFlows)
	for i := 0; i < frerN; i++ {
		specs[i].FRER = true
		specs[i].AltVID = uint16(4001 + i)
	}
	id := uint32(100_000)
	for srcIdx := 0; srcIdx < 3 && srcIdx < n; srcIdx++ {
		if p.RCMbps > 0 {
			specs = append(specs, flows.Background(id, ethernet.ClassRC,
				Host(srcIdx, true), Host((srcIdx+p.Hops-1)%n, false), uint16(3000+srcIdx),
				ethernet.Rate(p.RCMbps)*ethernet.Mbps))
			id++
		}
		if p.BEMbps > 0 {
			specs = append(specs, flows.Background(id, ethernet.ClassBE,
				Host(srcIdx, true), Host((srcIdx+p.Hops-1)%n, false), uint16(3200+srcIdx),
				ethernet.Rate(p.BEMbps)*ethernet.Mbps))
			id++
		}
	}
	if err := core.BindPaths(topo, specs); err != nil {
		return nil, err
	}
	return &Built{Topo: topo, Specs: specs, FRERFlows: frerN}, nil
}

// Build constructs the workload deterministically from p: Scenario,
// then derivation, plan application, deadline override and design
// build. The order is load-bearing: cmd/tsnsim produced exactly this
// sequence before the extraction, and replay equivalence depends on
// keeping it.
func Build(p Params) (*Built, error) {
	b, err := Scenario(p)
	if err != nil {
		return nil, err
	}
	der, err := core.DeriveConfig(core.Scenario{
		Topo: b.Topo, Flows: b.Specs,
		SlotSize: sim.Time(p.SlotUs) * sim.Microsecond,
	})
	if err != nil {
		return nil, err
	}
	der.Plan.Apply(b.Specs)
	if p.TSDeadline > 0 {
		for _, s := range b.Specs {
			if s.Class == ethernet.ClassTS {
				s.Deadline = sim.Time(p.TSDeadline)
			}
		}
	}
	if b.Design, err = der.Design(nil); err != nil {
		return nil, err
	}
	b.Der = der
	return b, nil
}
