// Package tsnbuilder is the public API of the TSN-Builder library: a
// template-based developing model for rapidly customizing
// resource-efficient Time-Sensitive Networking switches (Yan et al.,
// DAC 2020).
//
// The top-down workflow:
//
//  1. Describe the application scenario — topology (Star/Ring/Linear)
//     and flows (GenerateTS/Background), bind paths with BindPaths.
//  2. Derive the resource parameters with DeriveConfig (the §III.C
//     guidelines: tables sized to the flow count, CQF gate tables of
//     two entries, queue depth from Injection Time Planning).
//  3. Turn the Derivation into a Design with its Design method: each
//     switch then holds the table entries bound through it. Hand-written
//     parameters go through the Table II customization APIs of a Builder
//     (SetSwitchTbl … SetBuffers, or BuilderFor) and size all alike.
//  4. Inspect the Design's platform memory report, and instantiate the
//     network with the testbed package to measure latency, jitter and
//     loss.
//
// A Plan lists one Offset per planned TS flow in Offsets, in the order
// the flows were given (Plan.Apply writes them into the specs), and one
// CellOccupancy per queueing point in PerCell, in the order the flows
// first reach them. A Cell is the (switch, next hop) pair of an egress
// queue, printed "sw3->4". DeriveConfig plans per egress port of the
// topology; PlanITP merges each switch's ports into one cell (Next -1,
// printed "sw3").
package tsnbuilder

import (
	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/itp"
	"github.com/tsnbuilder/tsnbuilder/internal/resource"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// Builder and design types.
type (
	// Builder accumulates resource parameters through the Table II
	// customization APIs.
	Builder = core.Builder
	// Config is the complete resource specification.
	Config = core.Config
	// Design is a completed customization with its memory report.
	Design = core.Design
	// Template is one of the five function templates.
	Template = core.Template
	// Platform abstracts the implementation target's memory model.
	Platform = core.Platform
	// FPGA is the paper's Xilinx BRAM cost model.
	FPGA = core.FPGA
	// ASIC is an exact-size SRAM cost model.
	ASIC = core.ASIC
)

// Scenario derivation.
type (
	// Scenario is the application-level input of the top-down flow.
	Scenario = core.Scenario
	// Derivation is DeriveConfig's output.
	Derivation = core.Derivation
	// Plan is an Injection Time Planning result.
	Plan = itp.Plan
	// Cell is one queueing point of a Plan: the egress queue of Switch
	// toward Next.
	Cell = itp.Cell
	// Offset is one flow's planned injection offset.
	Offset = itp.Offset
	// CellOccupancy is one queueing point's worst packets per slot.
	CellOccupancy = itp.CellOccupancy
)

// Traffic and topology.
type (
	// FlowSpec describes one TS/RC/BE flow.
	FlowSpec = flows.Spec
	// TSParams configures GenerateTS.
	TSParams = flows.TSParams
	// Topology is a switch-level network graph.
	Topology = topology.Topology
	// Report is a platform memory breakdown.
	Report = resource.Report
	// Time is a simulated instant/duration in nanoseconds.
	Time = sim.Time
	// Rate is a bandwidth in bits per second.
	Rate = ethernet.Rate
	// Class is a TSN traffic class.
	Class = ethernet.Class
)

// Fault injection (robustness testing).
type (
	// FaultScenario is a deterministic fault script for the testbed.
	FaultScenario = faults.Scenario
	// Fault is one scheduled fault within a scenario.
	Fault = faults.Fault
)

// Time and rate units.
const (
	Nanosecond  = sim.Nanosecond
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
	Second      = sim.Second
	Mbps        = ethernet.Mbps
	Gbps        = ethernet.Gbps
)

// Traffic classes.
const (
	ClassTS = ethernet.ClassTS
	ClassRC = ethernet.ClassRC
	ClassBE = ethernet.ClassBE
)

// The five function templates.
const (
	TemplateTimeSync      = core.TemplateTimeSync
	TemplatePacketSwitch  = core.TemplatePacketSwitch
	TemplateIngressFilter = core.TemplateIngressFilter
	TemplateGateCtrl      = core.TemplateGateCtrl
	TemplateEgressSched   = core.TemplateEgressSched
)

// NewBuilder starts a customization against platform (nil = FPGA).
func NewBuilder(platform Platform) *Builder { return core.NewBuilder(platform) }

// BuilderFor returns a Builder pre-loaded with cfg.
func BuilderFor(cfg Config, platform Platform) *Builder { return core.BuilderFor(cfg, platform) }

// DeriveConfig computes resource parameters from a scenario per the
// paper's §III.C guidelines.
func DeriveConfig(sc Scenario) (*Derivation, error) { return core.DeriveConfig(sc) }

// BindPaths fills each flow's switch path from the topology.
func BindPaths(topo *Topology, specs []*FlowSpec) error { return core.BindPaths(topo, specs) }

// CommercialProfile returns the Broadcom BCM53154 baseline
// configuration of §IV.B.
func CommercialProfile() Config { return core.CommercialProfile() }

// PaperCustomizedConfig returns the customized Table III column for the
// given enabled-port count (3 = star, 2 = linear, 1 = ring).
func PaperCustomizedConfig(ports int) Config { return core.PaperCustomizedConfig(ports) }

// AllTemplates lists the five templates in pipeline order.
func AllTemplates() []Template { return core.AllTemplates() }

// DiffConfigs reports the customization-API parameters that differ
// between two configurations — the reconfiguration delta when a
// scenario changes.
func DiffConfigs(old, new Config) []string { return core.DiffConfigs(old, new) }

// Star builds a star topology with the given child count (core = 0).
func Star(children int) *Topology { return topology.Star(children) }

// Ring builds an n-switch unidirectional ring.
func Ring(n int) *Topology { return topology.Ring(n) }

// RingBidir builds an n-switch bidirectional ring — the topology class
// with two disjoint paths between any switch pair, which 802.1CB FRER
// needs for seamless redundancy.
func RingBidir(n int) *Topology { return topology.RingBidir(n) }

// Linear builds an n-switch bidirectional chain.
func Linear(n int) *Topology { return topology.Linear(n) }

// Tree builds a two-level aggregation tree (root, spines, leaves).
func Tree(spines, leaves int) *Topology { return topology.Tree(spines, leaves) }

// GenerateTS builds a periodic TS workload (IEC 60802-style features).
func GenerateTS(p TSParams) []*FlowSpec { return flows.GenerateTS(p) }

// Background builds one RC or BE background flow (1024 B frames).
func Background(id uint32, class Class, src, dst int, vid uint16, rate Rate) *FlowSpec {
	return flows.Background(id, class, src, dst, vid, rate)
}

// PlanITP runs Injection Time Planning standalone.
func PlanITP(specs []*FlowSpec, slot Time) (*Plan, error) {
	return itp.Compute(specs, slot, nil)
}
