package chaos

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// caseSeed derives case i's RNG seed from the campaign seed with a
// splitmix64-style mix, so adjacent indices get uncorrelated streams
// and the mapping is stable across releases (it is part of the repro
// format: a case regenerates from (profile, index) alone).
func caseSeed(campaign uint64, index int) uint64 {
	z := campaign + uint64(index+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	return z ^ (z >> 31)
}

// rangeInt draws uniformly from [lo, hi].
func rangeInt[T int | int64](rng *sim.Rand, lo, hi T) T {
	if hi <= lo {
		return lo
	}
	return lo + T(rng.Int63n(int64(hi-lo+1)))
}

// Generate derives case index of the campaign described by p. The
// same (p, index) always yields the same case; generation draws every
// random decision from one per-case stream in a fixed order. The
// returned case has already passed faults.Scenario validation.
func Generate(p Profile, index int) (Case, error) {
	rng := sim.NewRand(caseSeed(p.Seed, index))
	c := Case{
		Index: index,
		Params: workload.Params{
			Seed:     caseSeed(p.Seed, index) | 1,
			Topology: p.Topologies[rng.Intn(len(p.Topologies))],
			WireSize: []int{64, 128, 256, 512}[rng.Intn(4)],
			SlotUs:   []int{65, 130}[rng.Intn(2)],
		},
		DurMs: rangeInt(rng, p.MinDurMs, p.MaxDurMs),
	}
	// Validate has made the topology known. A generated tree has at
	// least one leaf per spine: five switches, above the shape's floor.
	kind, _ := topology.Parse(c.Topology)
	lo := max(p.MinSwitches, kind.Floor())
	if kind == topology.KindTree {
		lo = max(lo, 5)
	}
	c.Switches = rangeInt(rng, lo, max(p.MaxSwitches, lo))
	c.TSFlows = rangeInt(rng, p.MinTSFlows, p.MaxTSFlows)
	c.Hops = rangeInt(rng, 2, min(p.MaxHops, c.Switches))
	if p.RCMaxMbps > 0 && rng.Float64() < 0.5 {
		c.RCMbps = rangeInt(rng, 10, p.RCMaxMbps)
	}
	if p.BEMaxMbps > 0 && rng.Float64() < 0.5 {
		c.BEMbps = rangeInt(rng, 10, p.BEMaxMbps)
	}
	c.Watchdog = rng.Float64() < p.WatchdogProb

	if kind == topology.KindRingBidir && rng.Float64() < p.FRERProb {
		if rng.Float64() < 0.5 {
			// Covered case: every TS flow redundant, faults restricted
			// below to one-directional ring-trunk failures.
			if c.TSFlows > workload.MaxFRERFlows {
				c.TSFlows = workload.MaxFRERFlows
			}
			c.FRERFlows = c.TSFlows
			c.FRERCovered = true
		} else {
			c.FRERFlows = rangeInt(rng, 1, min(c.TSFlows, workload.MaxFRERFlows))
		}
	}

	// Build the workload once at generation time: it proves the case
	// constructs, and supplies the base configuration the reconfig
	// delta doubles from.
	wl, err := workload.Build(c.Params)
	if err != nil {
		return Case{}, fmt.Errorf("chaos: case %d does not build: %w", index, err)
	}

	if rng.Float64() < p.ReconfigProb {
		base := wl.Der.Config
		d := &Delta{AtUs: rangeInt(rng, c.durUs()/4, c.durUs()/2)}
		// Grow one to three resizable resources to double their derived
		// size. Growth is always valid (shrink could collide with live
		// occupancy and get rejected, which would not exercise commit).
		grow := []struct {
			dst  **int
			size int
		}{
			{&d.UnicastSize, base.UnicastSize}, {&d.ClassSize, base.ClassSize},
			{&d.MeterSize, base.MeterSize}, {&d.QueueDepth, base.QueueDepth},
			{&d.BufferNum, base.BufferNum},
		}
		for _, i := range rng.Perm(len(grow))[:1+rng.Intn(3)] {
			doubled := 2 * grow[i].size
			*grow[i].dst = &doubled
		}
		c.Reconfig = d
		armAt := d.AtUs / 2
		if armAt < 1 {
			armAt = 1
		}
		if rng.Float64() < p.TransientProb {
			op := rng.Intn(4)
			count := rangeInt(rng, 1, reconfig.Retries)
			c.Faults = append(c.Faults, faults.Fault{
				AtUs: armAt, Kind: faults.KindReconfigTransient, Op: &op, Count: count,
			})
		}
		if rng.Float64() < p.WedgeProb {
			op := rng.Intn(3)
			c.Faults = append(c.Faults, faults.Fault{
				AtUs: armAt, Kind: faults.KindReconfigWedge, Op: &op,
			})
		}
	}

	// Directed trunk selectors: every orientation the topology can
	// actually address (rings are one-way, linear links go both ways).
	trunks := make([][2]int, 0, 16)
	for _, l := range wl.Topo.TrunkLinks() {
		if _, ok := wl.Topo.PortToward(l.A.Switch, l.B.Switch); ok {
			trunks = append(trunks, [2]int{l.A.Switch, l.B.Switch})
		}
		if _, ok := wl.Topo.PortToward(l.B.Switch, l.A.Switch); ok {
			trunks = append(trunks, [2]int{l.B.Switch, l.A.Switch})
		}
	}
	c.Faults = append(c.Faults, randomFaults(rng, &c, wl.Topo.N, trunks, p.MaxFaults)...)
	if err := (&faults.Scenario{Faults: c.Faults}).Validate(); err != nil {
		return Case{}, fmt.Errorf("chaos: case %d generated an invalid scenario: %w", index, err)
	}
	return c, nil
}

// randomFaults draws up to maxFaults faults for c. Each candidate is
// validated against the script built so far and silently dropped when
// it duplicates an earlier fault's kind/target/window — the generator
// never emits a scenario the S2 duplicate check would reject.
func randomFaults(rng *sim.Rand, c *Case, n int, trunks [][2]int, maxFaults int) []faults.Fault {
	var out []faults.Fault
	tryAdd := func(f faults.Fault) bool {
		script := append(append([]faults.Fault{}, c.Faults...), out...)
		script = append(script, f)
		if err := (&faults.Scenario{Faults: script}).Validate(); err != nil {
			return false
		}
		out = append(out, f)
		return true
	}
	// Fault instants stay inside the run with a margin at both ends so
	// activation and (usually) recovery land while traffic flows.
	at := func() int64 { return rangeInt(rng, 1000, max(1001, c.durUs()-5000)) }
	dur := func() int64 { return rangeInt[int64](rng, 500, 5000) }

	budget := rng.Intn(maxFaults + 1)
	// Covered cases confine every fault to ONE ring cable, drawn once:
	// a cable pull severs both directions (netdev.SetLink), so faults
	// across two cables could cut both member-stream arcs — FRER's
	// zero-loss guarantee only covers a single point of failure.
	coveredA := rng.Intn(n)
	coveredB := (coveredA + 1) % n
	for len(out) < budget {
		var f faults.Fault
		if c.FRERCovered {
			atUs := at()
			pick := faults.Pick{Kind: faults.KindLinkDown, Aim: faults.AimTrunk}
			if rng.Float64() >= 0.5 {
				pick.Kind = faults.KindLinkFlap
			}
			f = pick.Draw(atUs, faults.Targets{A: coveredA, B: coveredB}, rng, dur)
		} else {
			f = randomFault(rng, n, trunks, at, dur)
		}
		if !tryAdd(f) {
			// A collision consumes budget instead of retrying: keeps
			// generation O(maxFaults) and deterministic.
			budget--
			continue
		}
		// Pair half the link-down faults with a later recovery.
		if f.Kind == faults.KindLinkDown && rng.Float64() < 0.5 && len(out) < budget {
			up := f
			up.Kind = faults.KindLinkUp
			up.AtUs = rangeInt(rng, f.AtUs+500, f.AtUs+8000)
			tryAdd(up)
		}
	}
	return out
}

// randomFault draws one fault from the fault table's menu, which leaves
// out gm-kill and node-kill: chaos cases run with perfect clocks. It
// draws each candidate target before it picks: a switch, a host, and a
// trunk from the topology's real trunk list (with random orientation);
// port-scoped faults hit port 0, which every switch has.
func randomFault(rng *sim.Rand, n int, trunks [][2]int, at, dur func() int64) faults.Fault {
	t := faults.Targets{Switch: rng.Intn(n)}
	background := rng.Intn(2) == 1
	t.Host = workload.Host(rng.Intn(n), background)
	trunk := trunks[rng.Intn(len(trunks))]
	t.A, t.B = trunk[0], trunk[1]
	atUs, menu := at(), faults.Menu()
	return menu[rng.Intn(len(menu))].Draw(atUs, t, rng, dur)
}
