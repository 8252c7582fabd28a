package itp

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

const slot = 65 * sim.Microsecond

// mkFlows builds n TS flows with the given period sharing one path.
func mkFlows(n int, period sim.Time, path []int) []*flows.Spec {
	out := make([]*flows.Spec, n)
	for i := range out {
		out[i] = &flows.Spec{
			ID:       uint32(i + 1),
			Class:    ethernet.ClassTS,
			WireSize: 64,
			Period:   period,
			Path:     append([]int(nil), path...),
		}
	}
	return out
}

// occupancy evaluates the worst per-switch occupancy of specs at the
// offsets already in them (all zero for the naive baseline).
func occupancy(specs []*flows.Spec, slot sim.Time) (int, error) {
	g, err := prepare(specs, slot, nil)
	if err != nil {
		return 0, err
	}
	defer g.release()
	for i := range g.flows {
		f := &g.flows[i]
		g.book(f, int(f.spec.Offset/slot))
	}
	worst := int32(0)
	for _, v := range g.occ {
		worst = max(worst, v)
	}
	return int(worst), nil
}

func TestSpreadsUniformFlows(t *testing.T) {
	// 100 flows, period = 100 slots, one shared switch: ITP should
	// place one flow per slot (occupancy 1).
	specs := mkFlows(100, 100*slot, []int{0})
	plan, err := Compute(specs, slot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MaxOccupancy != 1 {
		t.Fatalf("MaxOccupancy = %d, want 1", plan.MaxOccupancy)
	}
	// Offsets must be distinct multiples of the slot.
	seen := map[sim.Time]bool{}
	for _, o := range plan.Offsets {
		id, off := o.ID, o.At
		if off%slot != 0 {
			t.Fatalf("flow %d offset %v not slot-aligned", id, off)
		}
		if seen[off] {
			t.Fatalf("offset %v reused", off)
		}
		seen[off] = true
	}
}

func TestPigeonholeOccupancy(t *testing.T) {
	// 150 flows into 50 slots: at least 3 per slot; greedy should hit
	// exactly 3.
	specs := mkFlows(150, 50*slot, []int{0})
	plan, err := Compute(specs, slot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MaxOccupancy != 3 {
		t.Fatalf("MaxOccupancy = %d, want 3", plan.MaxOccupancy)
	}
}

func TestNaiveVersusPlanned(t *testing.T) {
	// The ablation: zero offsets concentrate everything in one slot.
	specs := mkFlows(64, 64*slot, []int{0, 1, 2})
	naive, err := occupancy(specs, slot)
	if err != nil {
		t.Fatal(err)
	}
	if naive != 64 {
		t.Fatalf("naive occupancy = %d, want 64", naive)
	}
	plan, err := Compute(specs, slot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MaxOccupancy != 1 {
		t.Fatalf("planned occupancy = %d, want 1", plan.MaxOccupancy)
	}
	plan.Apply(specs)
	evaluated, err := occupancy(specs, slot)
	if err != nil {
		t.Fatal(err)
	}
	if evaluated != plan.MaxOccupancy {
		t.Fatalf("Occupancy re-evaluation = %d, plan said %d", evaluated, plan.MaxOccupancy)
	}
}

func TestMultiHopShift(t *testing.T) {
	// Two flows on overlapping paths: flow A hits switch 1 at slot
	// o_A+1, flow B at o_B. The planner must keep them apart.
	a := &flows.Spec{ID: 1, Class: ethernet.ClassTS, WireSize: 64, Period: 2 * slot, Path: []int{0, 1}}
	b := &flows.Spec{ID: 2, Class: ethernet.ClassTS, WireSize: 64, Period: 2 * slot, Path: []int{1}}
	plan, err := Compute([]*flows.Spec{a, b}, slot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MaxOccupancy != 1 {
		t.Fatalf("MaxOccupancy = %d, want 1 (offsets %v)", plan.MaxOccupancy, plan.Offsets)
	}
}

func TestMixedPeriods(t *testing.T) {
	// Periods 2 and 4 slots: hyperperiod 4. Four flows of period 2
	// fill every slot twice... capacity: period-2 flows each occupy 2
	// of 4 slots; two such flows + two period-4 flows can reach
	// occupancy 1 only if slots suffice: 2*2 + 2*1 = 6 > 4 → min 2.
	specs := []*flows.Spec{
		{ID: 1, Class: ethernet.ClassTS, WireSize: 64, Period: 2 * slot, Path: []int{0}},
		{ID: 2, Class: ethernet.ClassTS, WireSize: 64, Period: 2 * slot, Path: []int{0}},
		{ID: 3, Class: ethernet.ClassTS, WireSize: 64, Period: 4 * slot, Path: []int{0}},
		{ID: 4, Class: ethernet.ClassTS, WireSize: 64, Period: 4 * slot, Path: []int{0}},
	}
	plan, err := Compute(specs, slot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MaxOccupancy != 2 {
		t.Fatalf("MaxOccupancy = %d, want 2", plan.MaxOccupancy)
	}
}

func TestOffsetsWithinPeriod(t *testing.T) {
	specs := mkFlows(32, 10*sim.Millisecond, []int{0, 1})
	plan, err := Compute(specs, slot, nil)
	if err != nil {
		t.Fatal(err)
	}
	for _, o := range plan.Offsets {
		if id, off := o.ID, o.At; off < 0 || off >= 10*sim.Millisecond {
			t.Fatalf("flow %d offset %v outside period", id, off)
		}
	}
	plan.Apply(specs)
	for _, s := range specs {
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestPortAwareCellKey(t *testing.T) {
	// Two flows through switch 0 but out different ports must not
	// constrain each other when the key is port-aware.
	topo := topology.Star(2)
	topo.AttachHost(101, 1)
	topo.AttachHost(102, 2)
	a := &flows.Spec{ID: 1, Class: ethernet.ClassTS, WireSize: 64, Period: 1 * slot, DstHost: 101, Path: []int{0, 1}}
	b := &flows.Spec{ID: 2, Class: ethernet.ClassTS, WireSize: 64, Period: 1 * slot, DstHost: 102, Path: []int{0, 2}}
	plan, err := Compute([]*flows.Spec{a, b}, slot, topo)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MaxOccupancy != 1 {
		t.Fatalf("port-aware occupancy = %d, want 1", plan.MaxOccupancy)
	}
	// Same setup with the default key shares the cell: occupancy 2
	// (period is one slot; both flows land in it).
	plan2, err := Compute([]*flows.Spec{a, b}, slot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan2.MaxOccupancy != 2 {
		t.Fatalf("shared-cell occupancy = %d, want 2", plan2.MaxOccupancy)
	}
}

func TestPaperWorkloadOccupancy(t *testing.T) {
	// 1024 flows, 10 ms period (153 slots at 65 µs), 6-switch ring
	// paths of ≤ 4 hops: queue depth demand must be far below the
	// naive 1024 and within the paper's customized depth of 12.
	specs := make([]*flows.Spec, 1024)
	for i := range specs {
		src := i % 6
		hops := 1 + i%4
		path := make([]int, hops)
		for h := range path {
			path[h] = (src + h) % 6
		}
		specs[i] = &flows.Spec{
			ID: uint32(i + 1), Class: ethernet.ClassTS, WireSize: 64,
			Period: 10 * sim.Millisecond, Path: path,
		}
	}
	plan, err := Compute(specs, slot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if plan.MaxOccupancy > 12 {
		t.Fatalf("paper workload occupancy = %d, exceeds customized depth 12", plan.MaxOccupancy)
	}
	t.Logf("1024-flow ring occupancy: %d (naive would be up to 1024)", plan.MaxOccupancy)
}

func TestErrors(t *testing.T) {
	if _, err := Compute(nil, 0, nil); err == nil {
		t.Error("zero slot accepted")
	}
	noPath := []*flows.Spec{{ID: 1, Class: ethernet.ClassTS, WireSize: 64, Period: slot}}
	if _, err := Compute(noPath, slot, nil); err == nil {
		t.Error("flow without path accepted")
	}
	tiny := []*flows.Spec{{ID: 1, Class: ethernet.ClassTS, WireSize: 64, Period: slot / 2, Path: []int{0}}}
	if _, err := Compute(tiny, slot, nil); err == nil {
		t.Error("sub-slot period accepted")
	}
	if _, err := occupancy(nil, 0); err == nil {
		t.Error("Occupancy zero slot accepted")
	}
}

func TestNonTSIgnored(t *testing.T) {
	specs := []*flows.Spec{
		flows.Background(9, ethernet.ClassBE, 0, 1, 1, ethernet.Mbps),
	}
	plan, err := Compute(specs, slot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Offsets) != 0 || plan.MaxOccupancy != 0 {
		t.Fatalf("BE flow planned: %+v", plan)
	}
}
