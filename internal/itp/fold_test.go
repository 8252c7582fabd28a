package itp

import (
	"math/rand"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// foldedSpecs draws a flow set whose hyperperiod exceeds the cap, so
// the grid folds onto the largest period: six flows with periods in
// 257…293 slots (pairwise lcm beyond 65 536) plus three of period 2–4
// that divide almost none of them, all across switches 0→1.
func foldedSpecs(rng *rand.Rand) []*flows.Spec {
	specs := make([]*flows.Spec, 9)
	for i := range specs {
		p := 257 + rng.Intn(37)
		if i >= 6 {
			p = 2 + rng.Intn(3)
		}
		specs[i] = &flows.Spec{
			ID: uint32(i + 1), Class: ethernet.ClassTS, WireSize: 64,
			Period: sim.Time(p) * slot, Path: []int{0, 1},
		}
	}
	return specs
}

// replayOccupancy brute-forces the worst per-(switch, slot) occupancy
// of the specs' offsets on the true, unfolded timeline over span slots.
func replayOccupancy(specs []*flows.Spec, span int) int {
	worst := 0
	timeline := map[int][]int{}
	for _, s := range specs {
		p, o := int(s.Period/slot), int(s.Offset/slot)
		for h, sw := range s.Path {
			if timeline[sw] == nil {
				timeline[sw] = make([]int, span)
			}
			for at := o + h; at < span; at += p {
				timeline[sw][at]++
				worst = max(worst, timeline[sw][at])
			}
		}
	}
	return worst
}

// TestFoldedHyperperiodCoversTrueOccupancy holds the capped grid to
// what it is for: the planned MaxOccupancy is the queue depth the
// network is provisioned with, so it may over-estimate the occupancy
// the offsets really produce but never under-estimate it.
func TestFoldedHyperperiodCoversTrueOccupancy(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	const span = 40 * 293 // ≥ 40 folded hyperperiods
	for set := 0; set < 200; set++ {
		specs := foldedSpecs(rng)
		plan, err := Compute(specs, slot, nil)
		if err != nil {
			t.Fatal(err)
		}
		plan.Apply(specs)
		if truth := replayOccupancy(specs, span); plan.MaxOccupancy < truth {
			t.Fatalf("set %d: Compute planned depth %d, replay reaches %d", set, plan.MaxOccupancy, truth)
		}
		for _, s := range specs {
			s.Offset = sim.Time(rng.Intn(int(s.Period/slot))) * slot
		}
		occ, err := occupancy(specs, slot)
		if err != nil {
			t.Fatal(err)
		}
		if truth := replayOccupancy(specs, span); occ < truth {
			t.Fatalf("set %d: Occupancy reports %d, replay reaches %d", set, occ, truth)
		}
	}
}
