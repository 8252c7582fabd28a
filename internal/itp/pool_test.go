package itp

import (
	"math/rand"
	"reflect"
	"sync"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/israce"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// TestGridPoolLeaksNothing: a grid back from the pool carries nothing
// of the call before it. Forty shapes of the derive grid — every
// topology, switch count and flow count — are planned serially, then an
// error input of each kind and a large capped set grow and dirty the
// pooled arrays, then the forty again from four goroutines; every plan
// must equal the first.
func TestGridPoolLeaksNothing(t *testing.T) {
	var sets []flowSet
	for i, set := range deriveGrid(t) {
		if i%4 == 0 {
			sets = append(sets, set)
		}
	}
	first := make([]*Plan, len(sets))
	for i, set := range sets {
		p, err := Compute(set.specs, slot, set.topo)
		if err != nil {
			t.Fatal(err)
		}
		first[i] = p
	}

	noPath := mkFlows(3, 10*slot, []int{0, 1})
	noPath[2].Path = nil
	belowSlot := mkFlows(3, 10*slot, []int{0, 1})
	belowSlot[1].Period = slot / 2
	offHost := append(walk(sets[0].topo, sets[0].specs), mkFlows(1, 10*slot, []int{0, 1})...)
	for _, specs := range [][]*flows.Spec{noPath, belowSlot, offHost} {
		if _, err := Compute(specs, slot, sets[0].topo); err == nil {
			t.Fatal("invalid flow set planned")
		}
	}
	rng := rand.New(rand.NewSource(7))
	large := make([]*flows.Spec, 400)
	for i := range large {
		path := make([]int, 1+rng.Intn(6))
		for h := range path {
			path[h] = rng.Intn(24)
		}
		large[i] = &flows.Spec{ID: uint32(i + 1), Class: ethernet.ClassTS, WireSize: 64,
			Period: sim.Time(100+rng.Intn(2900)) * slot, Path: path}
	}
	if _, err := Compute(large, slot, nil); err != nil {
		t.Fatal(err)
	}

	var wg sync.WaitGroup
	for w := 0; w < 4; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i, set := range sets {
				p, err := Compute(set.specs, slot, set.topo)
				if err != nil || !reflect.DeepEqual(p, first[i]) {
					t.Errorf("%s: plan differs from the first serial plan (err %v)", set.name, err)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestComputeAllocs: with the working set pooled, a port-aware plan
// allocates the Plan, its offsets and its cells — three allocations —
// however many flows it places.
func TestComputeAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	allocs := func(nFlows int) float64 {
		topo := topology.Ring(8)
		specs := workloadSpecs(t, topo, nFlows, 3)
		return testing.AllocsPerRun(20, func() {
			if _, err := Compute(specs, slot, topo); err != nil {
				t.Fatal(err)
			}
		})
	}
	small, large := allocs(64), allocs(440)
	if small != large || small > 3 {
		t.Fatalf("Compute allocates %v times for 64 flows, %v for 440; want the same, at most 3", small, large)
	}
	t.Logf("%v allocations per Compute", small)
}
