package itp

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// bruteForceOptimal exhaustively searches all offset assignments of the
// given (tiny) instance and returns the minimum achievable worst
// occupancy. Exponential — test instances only.
func bruteForceOptimal(t *testing.T, specs []*flows.Spec, slot sim.Time) int {
	t.Helper()
	periods := make([]int64, len(specs))
	for i, s := range specs {
		periods[i] = int64(s.Period / slot)
	}
	saved := make([]sim.Time, len(specs))
	for i, s := range specs {
		saved[i] = s.Offset
	}
	defer func() {
		for i, s := range specs {
			s.Offset = saved[i]
		}
	}()

	best := 1 << 30
	var rec func(i int)
	rec = func(i int) {
		if i == len(specs) {
			occ, err := occupancy(specs, slot)
			if err != nil {
				t.Fatal(err)
			}
			if occ < best {
				best = occ
			}
			return
		}
		for o := int64(0); o < periods[i]; o++ {
			specs[i].Offset = sim.Time(o) * slot
			rec(i + 1)
		}
	}
	rec(0)
	return best
}

// tinyInstance builds n flows with the given periods (in slots) over
// shared single-switch paths.
func tinyInstance(periodsInSlots []int64) []*flows.Spec {
	specs := make([]*flows.Spec, len(periodsInSlots))
	for i, p := range periodsInSlots {
		specs[i] = &flows.Spec{
			ID: uint32(i + 1), Class: ethernet.ClassTS, WireSize: 64,
			Period: sim.Time(p) * slot, Path: []int{0},
		}
	}
	return specs
}

// TestGreedyMatchesOptimalOnTinyInstances compares the greedy planner
// against exhaustive search on every instance small enough to
// enumerate. Greedy need not be optimal in general, but on these
// single-resource instances it should be — and must never be worse
// than 2× optimal.
func TestGreedyMatchesOptimalOnTinyInstances(t *testing.T) {
	cases := [][]int64{
		{2, 2},
		{2, 2, 2},
		{2, 2, 2, 2, 2},
		{4, 4, 2},
		{4, 2, 2, 4},
		{3, 3, 3},
		{6, 3, 2},
		{4, 4, 4, 4, 2},
	}
	for _, periods := range cases {
		specs := tinyInstance(periods)
		plan, err := Compute(specs, slot, nil)
		if err != nil {
			t.Fatal(err)
		}
		opt := bruteForceOptimal(t, specs, slot)
		if plan.MaxOccupancy > 2*opt {
			t.Errorf("periods %v: greedy %d > 2× optimal %d", periods, plan.MaxOccupancy, opt)
		}
		if plan.MaxOccupancy > opt {
			t.Logf("periods %v: greedy %d vs optimal %d (suboptimal but within bound)",
				periods, plan.MaxOccupancy, opt)
		}
	}
}

// TestGreedyOptimalTwoHop checks a multi-resource instance where hop
// shifts matter.
func TestGreedyOptimalTwoHop(t *testing.T) {
	specs := []*flows.Spec{
		{ID: 1, Class: ethernet.ClassTS, WireSize: 64, Period: 2 * slot, Path: []int{0, 1}},
		{ID: 2, Class: ethernet.ClassTS, WireSize: 64, Period: 2 * slot, Path: []int{1, 0}},
		{ID: 3, Class: ethernet.ClassTS, WireSize: 64, Period: 2 * slot, Path: []int{0}},
	}
	plan, err := Compute(specs, slot, nil)
	if err != nil {
		t.Fatal(err)
	}
	opt := bruteForceOptimal(t, specs, slot)
	if plan.MaxOccupancy != opt {
		t.Errorf("greedy %d vs optimal %d", plan.MaxOccupancy, opt)
	}
}
