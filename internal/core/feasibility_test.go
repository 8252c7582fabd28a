package core

import (
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/itp"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

func planWith(cells []itp.CellOccupancy, slot sim.Time) *itp.Plan {
	return &itp.Plan{PerCell: cells, Slot: slot}
}

func TestFeasibilityAtGigabit(t *testing.T) {
	// 12 frames of 64 B at 1 Gbps drain in ~8 µs ≪ 65 µs.
	plan := planWith([]itp.CellOccupancy{{Cell: itp.Cell{Switch: 0, Next: 1}, Occupancy: 12}}, 65*sim.Microsecond)
	if issues := CheckSlotFeasibility(plan, ethernet.Gbps, 64); len(issues) != 0 {
		t.Fatalf("gigabit flagged infeasible: %v", issues)
	}
}

func TestFeasibilityAtSlowAccess(t *testing.T) {
	// 12 frames of 64 B at 10 Mbps need ~807 µs ≫ 65 µs.
	plan := planWith([]itp.CellOccupancy{{Cell: itp.Cell{Switch: 0, Next: -102}, Occupancy: 12}, {Cell: itp.Cell{Switch: 1, Next: 2}, Occupancy: 2}}, 65*sim.Microsecond)
	issues := CheckSlotFeasibility(plan, 10*ethernet.Mbps, 64)
	if len(issues) != 2 {
		t.Fatalf("issues = %v", issues)
	}
	// Worst first.
	if issues[0].Cell != "sw0->-102" || issues[0].Occupancy != 12 {
		t.Fatalf("ordering wrong: %v", issues)
	}
	if !strings.Contains(issues[0].String(), "sw0->-102") {
		t.Fatal("issue formatting broken")
	}
}

func TestFeasibilityDegenerateInputs(t *testing.T) {
	if CheckSlotFeasibility(nil, ethernet.Gbps, 64) != nil {
		t.Fatal("nil plan produced issues")
	}
	plan := planWith([]itp.CellOccupancy{{Occupancy: 1}}, sim.Microsecond)
	if CheckSlotFeasibility(plan, 0, 64) != nil || CheckSlotFeasibility(plan, ethernet.Gbps, 0) != nil {
		t.Fatal("degenerate rate/size produced issues")
	}
}

func TestDeriveWidensSlotForSlowAccess(t *testing.T) {
	topo := topologyRing6(t)
	specs := ringFlows(t, topo, 256)
	// Fast access: the default 65 µs slot stands.
	fast, err := DeriveConfig(Scenario{Topo: topo, Flows: specs})
	if err != nil {
		t.Fatal(err)
	}
	if fast.Config.SlotSize != 65*sim.Microsecond {
		t.Fatalf("fast slot = %v", fast.Config.SlotSize)
	}
	// 10 Mbps field devices: a 64 B frame needs 67.2 µs — the slot must
	// widen past the per-slot drain demand.
	slow, err := DeriveConfig(Scenario{Topo: topo, Flows: specs, AccessRate: 10 * ethernet.Mbps})
	if err != nil {
		t.Fatal(err)
	}
	if slow.Config.SlotSize <= 65*sim.Microsecond {
		t.Fatalf("slow slot = %v, want widened", slow.Config.SlotSize)
	}
	if issues := CheckSlotFeasibility(slow.Plan, 10*ethernet.Mbps, 64); len(issues) != 0 {
		t.Fatalf("derived slot still infeasible: %v", issues)
	}
}

// topologyRing6/ringFlows are small helpers for the feasibility tests.
func topologyRing6(t *testing.T) *topology.Topology {
	t.Helper()
	topo := topology.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h)
	}
	return topo
}

func ringFlows(t *testing.T, topo *topology.Topology, n int) []*flows.Spec {
	t.Helper()
	specs := flows.GenerateTS(flows.TSParams{
		Count: n, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
		Hosts: func(i int) (int, int) { return 100 + i%6, 100 + (i+2)%6 },
		Seed:  5,
	})
	if err := BindPaths(topo, specs); err != nil {
		t.Fatal(err)
	}
	return specs
}

func TestMinFeasibleSlot(t *testing.T) {
	// 12 × 84 B at 100 Mbps = 80.64 µs → rounds to 81 µs.
	got := MinFeasibleSlot(12, 100*ethernet.Mbps, 64, sim.Microsecond)
	if got != 81*sim.Microsecond {
		t.Fatalf("MinFeasibleSlot = %v, want 81µs", got)
	}
	// The returned slot must actually be feasible.
	plan := planWith([]itp.CellOccupancy{{Occupancy: 12}}, got)
	if issues := CheckSlotFeasibility(plan, 100*ethernet.Mbps, 64); len(issues) != 0 {
		t.Fatalf("MinFeasibleSlot result infeasible: %v", issues)
	}
	if MinFeasibleSlot(0, ethernet.Gbps, 64, 0) != 0 {
		t.Fatal("degenerate inputs should yield 0")
	}
}
