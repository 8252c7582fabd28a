package itp

import (
	"cmp"
	"fmt"
	"slices"

	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// Strategy selects the offset-assignment algorithm. The paper's §V
// frames parameter selection as an optimization problem and invites
// alternative algorithms over the same abstraction; these strategies
// span the design space the ablation compares.
type Strategy int

// Available strategies.
const (
	// StrategyGreedy is the first-fit minimizing per-cell occupancy
	// (the default planner).
	StrategyGreedy Strategy = iota
	// StrategyRoundRobin spreads flows evenly over the period without
	// looking at paths.
	StrategyRoundRobin
	// StrategyRandom draws offsets uniformly (seeded).
	StrategyRandom
	// StrategyNaive injects everything at offset zero (the worst case).
	StrategyNaive
)

// String implements fmt.Stringer.
func (s Strategy) String() string {
	switch s {
	case StrategyGreedy:
		return "greedy"
	case StrategyRoundRobin:
		return "round-robin"
	case StrategyRandom:
		return "random"
	case StrategyNaive:
		return "naive"
	}
	return fmt.Sprintf("Strategy(%d)", int(s))
}

// ComputeWith plans injection offsets using the given strategy and
// evaluates the resulting worst-case occupancy. StrategyGreedy
// delegates to Compute; the others assign offsets in flow-ID order,
// blind to the grid they are booked into.
func ComputeWith(specs []*flows.Spec, slot sim.Time, topo *topology.Topology, strategy Strategy, seed uint64) (*Plan, error) {
	var choose func(i int, f *flow) int
	switch strategy {
	case StrategyGreedy:
		return Compute(specs, slot, topo)
	case StrategyRoundRobin:
		choose = func(i int, f *flow) int { return i % f.period }
	case StrategyRandom:
		rng := sim.NewRand(seed)
		choose = func(_ int, f *flow) int { return int(rng.Int63n(int64(f.period))) }
	case StrategyNaive:
		choose = func(int, *flow) int { return 0 }
	default:
		return nil, fmt.Errorf("itp: unknown strategy %d", strategy)
	}
	g, err := prepare(specs, slot, topo)
	if err != nil {
		return nil, err
	}
	defer g.release()
	slices.SortStableFunc(g.flows, func(a, b flow) int { return cmp.Compare(a.spec.ID, b.spec.ID) })
	return g.place(slot, choose), nil
}
