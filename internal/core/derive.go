package core

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/frer"
	"github.com/tsnbuilder/tsnbuilder/internal/itp"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// The paper's fixed resource choices (§IV.B) that every derivation
// makes: 8 queues per port, 3 of them reserved for RC traffic, 1 Gbps
// links, and 50 % multiplicative headroom on the ITP occupancy bound,
// which is how the paper's planned occupancy of 8 becomes the
// provisioned depth 12.
const (
	portQueues  = 8
	rcQueues    = 3
	linkRate    = ethernet.Gbps
	depthMargin = 50 // percent
)

// Scenario is the application-level input of the top-down flow: the
// pre-determined topology and flow features of §II.A from which the
// resource parameters are computed.
type Scenario struct {
	Topo *topology.Topology
	// Flows must have Path filled (use BindPaths).
	Flows []*flows.Spec
	// SlotSize is the CQF slot; zero selects the paper's 65 µs.
	SlotSize sim.Time
	// AccessRate, when positive, is the slowest egress rate a TS flow
	// crosses (field-device links). DeriveConfig then checks the slot
	// against the drain-feasibility constraint and widens it if needed.
	AccessRate ethernet.Rate
}

// BindPaths fills each flow's Path from the topology and the hosts'
// attachment points. FRER flows get two link-disjoint member-stream
// paths (Path + AltPath), which requires a topology that can provide
// them (a bidirectional ring). Flows between the same pair of switches
// share one path slice.
func BindPaths(topo *topology.Topology, specs []*flows.Spec) error {
	router := topo.Router()
	for _, s := range specs {
		if s.FRER {
			pri, alt, err := topo.DisjointHostPaths(s.SrcHost, s.DstHost)
			if err != nil {
				return fmt.Errorf("core: FRER flow %d: %w", s.ID, err)
			}
			s.Path, s.AltPath = pri, alt
			continue
		}
		p, err := router.HostPath(s.SrcHost, s.DstHost)
		if err != nil {
			return fmt.Errorf("core: flow %d: %w", s.ID, err)
		}
		s.Path = p
	}
	return nil
}

// Derivation is DeriveConfig's result: the network-wide configuration
// (guideline (1)'s worst case, what the paper prints), the ITP plan that
// justified the queue depth, and by switch ID how far below that worst
// case each switch's own tables sit.
type Derivation struct {
	Config Config
	Plan   *itp.Plan
	Spare  []Spare
}

// Spare is what one switch does not need of the network-wide sizes:
// Entries forwarding/classification entries (it needs one per hop bound
// through it) and Flows meter slots (one per hop of a primary path).
type Spare struct{ Entries, Flows int32 }

// Design builds the derived configuration for platform (nil selects
// FPGA) with the per-switch spare, so each switch holds what is bound
// through it (Design.Local). Hand-written configurations go through
// BuilderFor and stay uniform.
func (d *Derivation) Design(platform Platform) (*Design, error) {
	design, err := BuilderFor(d.Config, platform).Build()
	if err == nil {
		design.spare = d.Spare
	}
	return design, err
}

// DeriveConfig computes the resource parameters from the scenario,
// following the §III.C guidelines:
//
//  1. switch/classification/meter tables sized to the flow count:
//     network-wide in Config, what each switch carries less in Spare;
//  2. gate tables sized to the slots per scheduling cycle (2 for CQF);
//  3. CBS tables sized to the RC queue count;
//  4. queue depth from the ITP occupancy bound (plus margin), buffers
//     = depth × queue count;
//  5. enabled ports from the topology.
func DeriveConfig(sc Scenario) (*Derivation, error) {
	if sc.SlotSize == 0 {
		sc.SlotSize = 65 * sim.Microsecond
	}
	if sc.Topo == nil {
		return nil, fmt.Errorf("core: scenario without topology")
	}
	if len(sc.Flows) == 0 {
		return nil, fmt.Errorf("core: scenario without flows")
	}
	nFlows, nFRER := 0, 0
	// spare counts what each switch carries until the totals are known.
	spare := make([]Spare, sc.Topo.N)
	for _, s := range sc.Flows {
		if err := s.Validate(); err != nil {
			return nil, err
		}
		if len(s.Path) == 0 {
			return nil, fmt.Errorf("core: flow %d has no path (call BindPaths)", s.ID)
		}
		nFlows++
		for _, sw := range s.Path {
			spare[sw].Entries++
			spare[sw].Flows++
		}
		if s.FRER {
			if len(s.AltPath) == 0 {
				return nil, fmt.Errorf("core: FRER flow %d has no alternate path (call BindPaths)", s.ID)
			}
			nFRER++
			for _, sw := range s.AltPath {
				spare[sw].Entries++
			}
		}
	}

	// Guideline (4): plan injection times, then provision depth with
	// margin. The plan is per egress port of the topology: flows through
	// the same switch toward different next hops use different queues.
	plan, err := itp.Compute(sc.Flows, sc.SlotSize, sc.Topo)
	if err != nil {
		return nil, err
	}
	// Mixed-speed networks: widen the slot until one slot's frames can
	// drain through the slowest egress ("a packet received at a time
	// slot must be sent at the next time slot"). Widening the slot can
	// change the plan, so iterate to a fixed point.
	if sc.AccessRate > 0 && sc.AccessRate < linkRate {
		maxWire := 0
		for _, s := range sc.Flows {
			if s.Class == ethernet.ClassTS && s.WireSize > maxWire {
				maxWire = s.WireSize
			}
		}
		for iter := 0; iter < 4; iter++ {
			issues := CheckSlotFeasibility(plan, sc.AccessRate, maxWire)
			if len(issues) == 0 {
				break
			}
			wider := MinFeasibleSlot(plan.MaxOccupancy, sc.AccessRate, maxWire, 5*sim.Microsecond)
			if wider <= sc.SlotSize {
				wider = sc.SlotSize + 5*sim.Microsecond
			}
			sc.SlotSize = wider
			if plan, err = itp.Compute(sc.Flows, sc.SlotSize, sc.Topo); err != nil {
				return nil, err
			}
			if iter == 3 {
				return nil, fmt.Errorf("core: no feasible slot for access rate %d bps (worst cell: %v)",
					sc.AccessRate, issues[0])
			}
		}
	}
	depth := plan.MaxOccupancy
	if depth < 1 {
		depth = 1
	}
	depth += (depth*depthMargin + 99) / 100

	// Each FRER flow consumes a second forwarding/classification entry
	// (its member stream on AltVID) and one sequence-recovery entry.
	// The ITP plan covers the primary paths; the replicas ride the same
	// injection offsets, and the depth margin absorbs their extra
	// occupancy on the disjoint alternate paths.
	nEntries := nFlows + nFRER
	for i, c := range spare {
		spare[i] = Spare{Entries: int32(nEntries) - c.Entries, Flows: int32(nFlows) - c.Flows}
	}
	cfg := Config{
		UnicastSize:   nEntries, // guideline (1): one entry per flow worst case
		MulticastSize: 0,        // multicast split into unicast flows (§IV.B)
		ClassSize:     nEntries,
		MeterSize:     nFlows,
		GateSize:      2, // CQF: scheduling cycle = 2 slots
		QueueNum:      portQueues,
		PortNum:       sc.Topo.EnabledTSNPorts,
		CBSMapSize:    rcQueues,
		CBSSize:       rcQueues,
		QueueDepth:    depth,
		BufferNum:     depth * portQueues, // overall buffers = depth × all queues
		SlotSize:      sc.SlotSize,
		LinkRate:      linkRate,
	}
	if nFRER > 0 {
		cfg.FRERSize = nFRER
		cfg.FRERHistory = frer.DefaultHistory
	}
	return &Derivation{Config: cfg, Plan: plan, Spare: spare}, nil
}

// BuilderFor returns a Builder pre-loaded with cfg through the
// customization APIs, ready to Build for the given platform.
func BuilderFor(cfg Config, platform Platform) *Builder {
	b, f := NewBuilder(platform), cfg.fields()
	for i := range Classes {
		if r := &Classes[i]; r.in(&cfg) {
			r.set(b, r.read(f, len(r.Params)))
		}
	}
	return b.SetTiming(cfg.SlotSize, cfg.LinkRate)
}

// CommercialProfile returns the BCM53154 resource configuration the
// paper uses as its baseline (§IV.B): 4 TSN ports, 16K MAC entries, 1K
// classification entries, 512 meters, 8 queues/shapers per port with
// depth 16, and 128 buffers per port. Parameters the datasheet leaves
// open are set as in the customized switches, exactly as the paper
// does.
func CommercialProfile() Config {
	return Config{
		UnicastSize:   16 * 1024,
		MulticastSize: 0,
		ClassSize:     1024,
		MeterSize:     512,
		GateSize:      2,
		QueueNum:      8,
		PortNum:       4,
		CBSMapSize:    8,
		CBSSize:       8,
		QueueDepth:    16,
		BufferNum:     128,
		SlotSize:      65 * sim.Microsecond,
		LinkRate:      ethernet.Gbps,
	}
}

// PaperCustomizedConfig returns the customized column of Table III for
// the given enabled-port count (3 = star, 2 = linear, 1 = ring),
// reproducing the paper's exact parameters for 1024 flows.
func PaperCustomizedConfig(ports int) Config {
	return Config{
		UnicastSize:   1024,
		MulticastSize: 0,
		ClassSize:     1024,
		MeterSize:     1024,
		GateSize:      2,
		QueueNum:      8,
		PortNum:       ports,
		CBSMapSize:    3,
		CBSSize:       3,
		QueueDepth:    12,
		BufferNum:     96,
		SlotSize:      65 * sim.Microsecond,
		LinkRate:      ethernet.Gbps,
	}
}
