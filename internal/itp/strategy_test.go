package itp

import (
	"slices"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
)

func strategyWorkload() []*flows.Spec {
	// 200 flows over 3 shared switches, 100-slot period.
	specs := make([]*flows.Spec, 200)
	for i := range specs {
		specs[i] = &flows.Spec{
			ID: uint32(i + 1), Class: ethernet.ClassTS, WireSize: 64,
			Period: 100 * slot, Path: []int{i % 3, (i + 1) % 3},
		}
	}
	return specs
}

func TestStrategyOrdering(t *testing.T) {
	specs := strategyWorkload()
	occ := map[Strategy]int{}
	for _, s := range []Strategy{StrategyGreedy, StrategyRoundRobin, StrategyRandom, StrategyNaive} {
		plan, err := ComputeWith(specs, slot, nil, s, 7)
		if err != nil {
			t.Fatal(err)
		}
		occ[s] = plan.MaxOccupancy
		t.Logf("%-12s occupancy %d", s, plan.MaxOccupancy)
	}
	// Naive concentrates each switch's hop-0 flows into one slot:
	// ~200×2/3 path visits over 3 switches split across 2 hop phases
	// ≈ 67 per cell.
	if occ[StrategyNaive] < 60 {
		t.Fatalf("naive occupancy = %d, want ~67", occ[StrategyNaive])
	}
	if occ[StrategyGreedy] > occ[StrategyRandom] {
		t.Fatalf("greedy (%d) worse than random (%d)", occ[StrategyGreedy], occ[StrategyRandom])
	}
	if occ[StrategyRandom] >= occ[StrategyNaive] {
		t.Fatalf("random (%d) not better than naive (%d)", occ[StrategyRandom], occ[StrategyNaive])
	}
	if occ[StrategyRoundRobin] >= occ[StrategyNaive] {
		t.Fatal("round-robin not better than naive")
	}
}

func TestStrategyDoesNotMutateSpecs(t *testing.T) {
	specs := strategyWorkload()
	specs[0].Offset = 42 * slot
	if _, err := ComputeWith(specs, slot, nil, StrategyRandom, 1); err != nil {
		t.Fatal(err)
	}
	if specs[0].Offset != 42*slot {
		t.Fatal("ComputeWith mutated spec offsets")
	}
}

func TestStrategyDeterministicRandom(t *testing.T) {
	specs := strategyWorkload()
	a, err := ComputeWith(specs, slot, nil, StrategyRandom, 9)
	if err != nil {
		t.Fatal(err)
	}
	b, err := ComputeWith(specs, slot, nil, StrategyRandom, 9)
	if err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(a.Offsets, b.Offsets) {
		t.Fatal("random strategy not seed-deterministic")
	}
}

func TestStrategyErrors(t *testing.T) {
	if _, err := ComputeWith(nil, 0, nil, StrategyNaive, 0); err == nil {
		t.Error("zero slot accepted")
	}
	noPath := []*flows.Spec{{ID: 1, Class: ethernet.ClassTS, WireSize: 64, Period: slot}}
	if _, err := ComputeWith(noPath, slot, nil, StrategyRandom, 0); err == nil {
		t.Error("flow without path accepted")
	}
	for _, specs := range [][]*flows.Spec{nil, strategyWorkload()[:1]} {
		if _, err := ComputeWith(specs, slot, nil, Strategy(99), 0); err == nil {
			t.Errorf("unknown strategy accepted for %d flows", len(specs))
		}
	}
}

func TestStrategyStrings(t *testing.T) {
	for _, s := range []Strategy{StrategyGreedy, StrategyRoundRobin, StrategyRandom, StrategyNaive} {
		if s.String() == "" {
			t.Fatal("empty strategy name")
		}
	}
	if Strategy(9).String() != "Strategy(9)" {
		t.Fatal("unknown strategy formatting")
	}
}

func TestGreedyViaComputeWithMatchesCompute(t *testing.T) {
	specs := strategyWorkload()
	a, err := ComputeWith(specs, slot, nil, StrategyGreedy, 0)
	if err != nil {
		t.Fatal(err)
	}
	b, err := Compute(specs, slot, nil)
	if err != nil {
		t.Fatal(err)
	}
	if a.MaxOccupancy != b.MaxOccupancy {
		t.Fatalf("greedy wrapper occupancy %d != direct %d", a.MaxOccupancy, b.MaxOccupancy)
	}
}
