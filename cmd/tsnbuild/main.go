// Command tsnbuild is the TSN-Builder customization front end: it takes
// an application scenario (topology shape + flow features) on the
// command line, derives the resource parameters per the paper's §III.C
// guidelines, prices them on the chosen platform and prints the
// resource report next to the commercial (BCM53154) baseline.
//
// Example:
//
//	tsnbuild -topology ring -switches 6 -flows 1024 -hops 3
//	tsnbuild -topology star -children 3 -flows 1024 -platform asic
//	tsnbuild -commercial
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/tsnbuilder/tsnbuilder/internal/scenariofile"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/tsnbuilder"
)

func main() {
	var (
		topoKind   = flag.String("topology", "ring", "topology kind: star, ring, linear or tree")
		switches   = flag.Int("switches", 6, "switch count (ring/linear)")
		children   = flag.Int("children", 3, "child count (star)")
		flowCount  = flag.Int("flows", 1024, "number of TS flows")
		hops       = flag.Int("hops", 3, "switches each flow traverses")
		periodMs   = flag.Int("period", 10, "TS flow period in ms")
		wireSize   = flag.Int("size", 64, "TS frame size in bytes")
		slotUs     = flag.Int("slot", 65, "CQF slot size in µs")
		platform   = flag.String("platform", "fpga", "cost model: fpga or asic")
		commercial = flag.Bool("commercial", false, "print only the commercial baseline")
		spec       = flag.String("spec", "", "JSON scenario file (overrides the workload flags)")
	)
	flag.Parse()
	var err error
	if *spec != "" {
		err = runSpec(*spec, *platform)
	} else {
		err = run(*topoKind, *switches, *children, *flowCount, *hops,
			*periodMs, *wireSize, *slotUs, *platform, *commercial)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "tsnbuild:", err)
		os.Exit(1)
	}
}

// runSpec derives and prices the design described by a scenario file.
func runSpec(path, platformName string) error {
	platform, err := platformFor(platformName)
	if err != nil {
		return err
	}
	file, err := scenariofile.Load(path)
	if err != nil {
		return err
	}
	sc, err := file.Scenario()
	if err != nil {
		return err
	}
	der, err := tsnbuilder.DeriveConfig(sc)
	if err != nil {
		return err
	}
	design, err := der.Design(platform)
	if err != nil {
		return err
	}
	base, err := tsnbuilder.BuilderFor(tsnbuilder.CommercialProfile(), platform).Build()
	if err != nil {
		return err
	}
	fmt.Printf("scenario %s: %d flows, %d-switch %s\n",
		path, len(sc.Flows), sc.Topo.N, sc.Topo.Kind)
	fmt.Printf("ITP plan: worst queue occupancy %d → depth %d, %d buffers/port\n\n",
		der.Plan.MaxOccupancy, der.Config.QueueDepth, der.Config.BufferNum)
	fmt.Print(design.Report.String())
	fmt.Printf("\nreduction vs commercial: %.2f%%\n", 100*design.Report.ReductionVs(base.Report))
	return nil
}

func platformFor(name string) (tsnbuilder.Platform, error) {
	switch name {
	case "fpga":
		return tsnbuilder.FPGA{}, nil
	case "asic":
		return tsnbuilder.ASIC{}, nil
	}
	return nil, fmt.Errorf("unknown platform %q", name)
}

func run(topoKind string, switches, children, flowCount, hops,
	periodMs, wireSize, slotUs int, platformName string, commercialOnly bool) error {

	platform, err := platformFor(platformName)
	if err != nil {
		return err
	}

	base, err := tsnbuilder.BuilderFor(tsnbuilder.CommercialProfile(), platform).Build()
	if err != nil {
		return err
	}
	if commercialOnly {
		fmt.Print(base.Report.String())
		return nil
	}

	var topo *tsnbuilder.Topology
	k, err := topology.Parse(topoKind)
	switch {
	case err != nil:
	case k == topology.KindStar:
		topo, err = topology.New(topoKind, children+1)
	case k == topology.KindRing || k == topology.KindLinear:
		topo, err = topology.New(topoKind, switches)
	case k != topology.KindTree:
		err = fmt.Errorf("topology %v is not offered here", k)
	case children < 1:
		err = fmt.Errorf("tree needs -children >= 1")
	default:
		topo = topology.Tree(children, 2)
	}
	if err != nil {
		return err
	}
	n := topo.N
	for h := 0; h < n; h++ {
		topo.AttachHost(100+h, h)
	}
	specs := tsnbuilder.GenerateTS(tsnbuilder.TSParams{
		Count:    flowCount,
		Period:   tsnbuilder.Time(periodMs) * tsnbuilder.Millisecond,
		WireSize: wireSize,
		VID:      1,
		Hosts: func(i int) (int, int) {
			src := i % n
			return 100 + src, 100 + (src+hops)%n
		},
		Seed: 42,
	})
	for i, s := range specs {
		s.VID = uint16(1 + i%4000)
	}
	if err := tsnbuilder.BindPaths(topo, specs); err != nil {
		return err
	}
	der, err := tsnbuilder.DeriveConfig(tsnbuilder.Scenario{
		Topo:     topo,
		Flows:    specs,
		SlotSize: tsnbuilder.Time(slotUs) * tsnbuilder.Microsecond,
	})
	if err != nil {
		return err
	}
	design, err := der.Design(platform)
	if err != nil {
		return err
	}

	fmt.Printf("scenario: %d TS flows, period %dms, %dB frames, %d-switch %s, slot %dµs\n",
		flowCount, periodMs, wireSize, n, topoKind, slotUs)
	fmt.Printf("ITP plan: worst queue occupancy %d → depth %d, %d buffers/port\n\n",
		der.Plan.MaxOccupancy, der.Config.QueueDepth, der.Config.BufferNum)
	fmt.Print(design.Report.String())
	fmt.Println()
	fmt.Print(base.Report.String())
	fmt.Printf("\nreduction vs commercial: %.2f%%\n", 100*design.Report.ReductionVs(base.Report))
	return nil
}
