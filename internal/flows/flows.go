// Package flows describes the traffic of a TSN application scenario:
// Time-Sensitive (TS), Rate-Constrained (RC) and Best-Effort (BE) flow
// specifications (§II.A), plus an IEC 60802-style scenario generator
// matching the paper's evaluation workload — 1024 periodic TS flows
// with 10 ms periods, deadlines drawn from {1,2,4,8 ms} and packet
// sizes from {64,...,1500 B}.
package flows

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// Spec is one flow's static description, the unit the classification
// and switch tables are dimensioned from.
type Spec struct {
	ID    uint32
	Class ethernet.Class
	// SrcHost/DstHost are end-device identifiers.
	SrcHost, DstHost int
	VID              uint16
	PCP              uint8
	// WireSize is the on-wire frame size in bytes (excluding
	// preamble/IFG).
	WireSize int

	// Period and Deadline apply to TS flows.
	Period   sim.Time
	Deadline sim.Time
	// Offset is the injection phase within the period, assigned by the
	// ITP planner.
	Offset sim.Time

	// Rate is the reserved/offered bandwidth of RC and BE flows.
	Rate ethernet.Rate
	// Burst is how many back-to-back frames RC/BE flows emit per tick
	// (0 or 1 = smooth pacing). The tick interval scales with the
	// burst so the average rate is unchanged.
	Burst int

	// Path is the switch sequence the flow traverses (filled by
	// core.BindPaths from the topology). Flows between the same pair of
	// switches share one slice: read it, or replace it, but never
	// modify it in place. Nothing in the repository does.
	Path []int

	// FRER enables 802.1CB seamless redundancy: the talker replicates
	// every frame onto a second, link-disjoint member stream carried on
	// AltVID along AltPath, and the listener eliminates duplicates in
	// its sequence-recovery table. AltVID must differ from VID so the
	// two member streams hit distinct forwarding entries.
	FRER    bool
	AltVID  uint16
	AltPath []int
}

// Validate checks that the spec is internally consistent.
func (s *Spec) Validate() error {
	if s.WireSize < ethernet.MinFrameBytes || s.WireSize > ethernet.MaxFrameBytes {
		return fmt.Errorf("flows: flow %d wire size %d", s.ID, s.WireSize)
	}
	switch s.Class {
	case ethernet.ClassTS:
		if s.Period <= 0 {
			return fmt.Errorf("flows: TS flow %d without period", s.ID)
		}
		if s.Offset < 0 || (s.Period > 0 && s.Offset >= s.Period) {
			return fmt.Errorf("flows: TS flow %d offset %v outside period %v", s.ID, s.Offset, s.Period)
		}
	case ethernet.ClassRC, ethernet.ClassBE:
		if s.Rate <= 0 {
			return fmt.Errorf("flows: %v flow %d without rate", s.Class, s.ID)
		}
		if s.Burst < 0 {
			return fmt.Errorf("flows: flow %d negative burst", s.ID)
		}
	default:
		return fmt.Errorf("flows: flow %d unknown class %d", s.ID, s.Class)
	}
	if s.FRER {
		if s.Class != ethernet.ClassTS {
			return fmt.Errorf("flows: FRER flow %d must be TS, is %v", s.ID, s.Class)
		}
		if s.AltVID == 0 || s.AltVID == s.VID {
			return fmt.Errorf("flows: FRER flow %d needs AltVID distinct from VID %d", s.ID, s.VID)
		}
	}
	return nil
}

// FrameInterval returns the emission interval: the period for TS flows,
// or the pacing interval that realizes Rate for RC/BE flows (per burst
// of BurstFrames frames).
func (s *Spec) FrameInterval() sim.Time {
	if s.Class == ethernet.ClassTS {
		return s.Period
	}
	return ethernet.TxTime(s.WireSize+ethernet.OverheadBytes, s.Rate) * sim.Time(s.BurstFrames())
}

// BurstFrames returns the frames emitted per tick (≥ 1).
func (s *Spec) BurstFrames() int {
	if s.Burst < 1 {
		return 1
	}
	return s.Burst
}

// PCPFor returns the conventional priority code point for a class: TS
// flows ride the highest priority, RC the middle band, BE zero.
func PCPFor(c ethernet.Class) uint8 {
	switch c {
	case ethernet.ClassTS:
		return 7
	case ethernet.ClassRC:
		return 5
	default:
		return 0
	}
}

// DeadlineSet is the paper's IEC 60802-guided deadline choices.
var DeadlineSet = []sim.Time{
	1 * sim.Millisecond,
	2 * sim.Millisecond,
	4 * sim.Millisecond,
	8 * sim.Millisecond,
}

// PacketSizeSet is the paper's TS packet-size sweep.
var PacketSizeSet = []int{64, 128, 256, 512, 1024, 1500}

// TSParams configures GenerateTS.
type TSParams struct {
	Count    int
	Period   sim.Time
	WireSize int
	VID      uint16
	// Hosts maps flow index → (src, dst) end devices. Required.
	Hosts func(i int) (src, dst int)
	// Seed drives the random deadline assignment.
	Seed uint64
}

// GenerateTS builds the paper's TS workload: Count periodic flows of
// one wire size, deadlines drawn uniformly from DeadlineSet. The specs
// share one backing array.
func GenerateTS(p TSParams) []*Spec {
	if p.Count <= 0 || p.Period <= 0 || p.Hosts == nil {
		panic("flows: invalid TSParams")
	}
	rng := sim.NewRand(p.Seed)
	backing := make([]Spec, p.Count)
	specs := make([]*Spec, p.Count)
	for i := range specs {
		src, dst := p.Hosts(i)
		backing[i] = Spec{
			ID:       uint32(i + 1),
			Class:    ethernet.ClassTS,
			SrcHost:  src,
			DstHost:  dst,
			VID:      p.VID,
			PCP:      PCPFor(ethernet.ClassTS),
			WireSize: p.WireSize,
			Period:   p.Period,
			Deadline: sim.Pick(rng, DeadlineSet),
		}
		specs[i] = &backing[i]
	}
	return specs
}

// SplitMulticast performs the paper's multicast handling (§IV.B: "the
// multicast flows can be split into multiple unicast flows"): one
// template flow to a set of destination hosts becomes one unicast spec
// per destination. IDs extend from the template's (template, +1, ...);
// callers must keep that range free.
func SplitMulticast(template *Spec, dstHosts []int) []*Spec {
	if len(dstHosts) == 0 {
		panic("flows: SplitMulticast without destinations")
	}
	out := make([]*Spec, 0, len(dstHosts))
	for i, dst := range dstHosts {
		s := *template
		s.ID = template.ID + uint32(i)
		s.DstHost = dst
		s.Path = nil // re-bind per destination
		out = append(out, &s)
	}
	return out
}

// Background builds one RC or BE flow of the given rate; the paper sets
// background packet size to 1024 B.
func Background(id uint32, class ethernet.Class, src, dst int, vid uint16, rate ethernet.Rate) *Spec {
	if class != ethernet.ClassRC && class != ethernet.ClassBE {
		panic("flows: Background requires RC or BE class")
	}
	return &Spec{
		ID:       id,
		Class:    class,
		SrcHost:  src,
		DstHost:  dst,
		VID:      vid,
		PCP:      PCPFor(class),
		WireSize: 1024,
		Rate:     rate,
	}
}
