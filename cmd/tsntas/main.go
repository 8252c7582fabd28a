// Command tsntas synthesizes an 802.1Qbv Time-Aware Shaper schedule
// for a scenario and prints it: per-port transmission windows, the
// compiled gate control lists, per-flow injection offsets and
// worst-case latency bounds — the artifact an engineer would load into
// the switches' gate tables.
//
// Example:
//
//	tsntas -spec examples/scenarios/production-line.json
//	tsntas -flows 64 -hops 3 -period 10
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/scenariofile"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tas"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

func main() {
	var (
		spec     = flag.String("spec", "", "JSON scenario file (overrides the workload flags)")
		flowN    = flag.Int("flows", 64, "TS flow count")
		hops     = flag.Int("hops", 3, "switches each flow traverses")
		periodMs = flag.Int("period", 10, "TS period (ms)")
		sizeB    = flag.Int("size", 64, "TS frame size (bytes)")
		guardUs  = flag.Int("guard", 2, "per-window guard slack (µs)")
		verbose  = flag.Bool("v", false, "print every window")
	)
	flag.Parse()
	if err := run(*spec, *flowN, *hops, *periodMs, *sizeB, *guardUs, *verbose); err != nil {
		fmt.Fprintln(os.Stderr, "tsntas:", err)
		os.Exit(1)
	}
}

func run(spec string, flowN, hops, periodMs, sizeB, guardUs int, verbose bool) error {
	var topo *topology.Topology
	var specs []*flows.Spec
	if spec != "" {
		file, err := scenariofile.Load(spec)
		if err != nil {
			return err
		}
		if topo, specs, err = file.Build(); err != nil {
			return err
		}
	} else {
		if flowN < 1 {
			return fmt.Errorf("-flows %d: need at least one flow", flowN)
		}
		if periodMs < 1 {
			return fmt.Errorf("-period %d: need at least 1 ms", periodMs)
		}
		topo = topology.Ring(6)
		for h := 0; h < 6; h++ {
			topo.AttachHost(100+h, h)
		}
		specs = flows.GenerateTS(flows.TSParams{
			Count:    flowN,
			Period:   sim.Time(periodMs) * sim.Millisecond,
			WireSize: sizeB,
			VID:      1,
			Hosts: func(i int) (int, int) {
				src := i % 6
				return 100 + src, 100 + (src+hops-1)%6
			},
			Seed: 42,
		})
		for i, s := range specs {
			s.VID = uint16(1 + i%4000)
		}
		if err := core.BindPaths(topo, specs); err != nil {
			return err
		}
	}

	sch, err := tas.Synthesize(specs, topo, tas.Options{
		Guard:         sim.Time(guardUs) * sim.Microsecond,
		MaxFrameBytes: 1522,
	})
	if err != nil {
		return err
	}

	fmt.Printf("schedule cycle: %v, guard band: %v, max gate entries: %d\n\n",
		sch.Cycle, sch.GuardBand, sch.MaxGateEntries)

	// Per-port window summaries, sorted for stable output.
	ports := make([]tas.PortKey, 0, len(sch.Windows))
	for pk := range sch.Windows {
		ports = append(ports, pk)
	}
	sort.Slice(ports, func(i, j int) bool {
		if ports[i].Switch != ports[j].Switch {
			return ports[i].Switch < ports[j].Switch
		}
		return ports[i].Port < ports[j].Port
	})
	for _, pk := range ports {
		ws := sch.Windows[pk]
		var busy sim.Time
		for _, w := range ws {
			busy += w.End - w.Start
		}
		util := 100 * float64(busy) / float64(sch.Cycle)
		fmt.Printf("sw%d port %d: %3d windows, %6.2f%% of cycle reserved\n",
			pk.Switch, pk.Port, len(ws), util)
		if verbose {
			for _, w := range ws {
				fmt.Printf("    [%10v, %10v) flow %d\n", w.Start, w.End, w.FlowID)
			}
		}
	}

	// Worst-case bounds per flow (summarized).
	var worst, sum sim.Time
	var worstFlow uint32
	tsCount := 0
	for _, s := range specs {
		if _, ok := sch.Offsets[s.ID]; !ok {
			continue
		}
		wc, err := sch.WorstCaseLatency(s, topo)
		if err != nil {
			return err
		}
		tsCount++
		sum += wc
		if wc > worst {
			worst, worstFlow = wc, s.ID
		}
	}
	if tsCount > 0 {
		fmt.Printf("\nworst-case latency: %v (flow %d); mean bound: %v across %d flows\n",
			worst, worstFlow, sum/sim.Time(tsCount), tsCount)
	}
	return nil
}
