// Command tsnbuild is the TSN-Builder customization front end: it takes
// an application scenario (topology shape + flow features) on the
// command line, derives the resource parameters per the paper's §III.C
// guidelines, prices them on the chosen platform and prints the
// resource report next to the commercial (BCM53154) baseline. The
// scenario flags and their meaning are workload.Params', as in tsnsim.
//
// Example:
//
//	tsnbuild -topology ring -switches 6 -flows 1024 -hops 3
//	tsnbuild -topology star -switches 4 -flows 1024 -platform asic
//	tsnbuild -commercial
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"github.com/tsnbuilder/tsnbuilder/internal/scenariofile"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
	"github.com/tsnbuilder/tsnbuilder/tsnbuilder"
)

// options is one tsnbuild invocation: the workload its scenario flags
// describe plus what only tsnbuild prints.
type options struct {
	workload.Params
	platform   string
	commercial bool
	spec       string
}

// parseFlags binds argv into options; a bad flag exits 2.
func parseFlags(args []string) *options {
	o := &options{Params: workload.Params{Topology: "ring", Switches: 6, TSFlows: 1024, Hops: 3,
		WireSize: 64, SlotUs: 65, Seed: 42}}
	fs := flag.NewFlagSet("tsnbuild", flag.ExitOnError)
	o.Bind(fs)
	fs.StringVar(&o.platform, "platform", "fpga", "cost model: fpga or asic")
	fs.BoolVar(&o.commercial, "commercial", false, "print only the commercial baseline")
	fs.StringVar(&o.spec, "spec", "", "JSON scenario file (overrides the workload flags)")
	_ = fs.Parse(args) // ExitOnError: Parse exits instead of returning an error
	return o
}

func main() {
	if err := run(os.Stdout, parseFlags(os.Args[1:])); err != nil {
		fmt.Fprintln(os.Stderr, "tsnbuild:", err)
		os.Exit(1)
	}
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

// run prints the derived design of the -spec file or, without one, of
// the scenario flags, next to the commercial baseline.
func run(w io.Writer, o *options) error {
	platform, err := platformFor(o.platform)
	if err != nil {
		return err
	}
	base, err := tsnbuilder.BuilderFor(tsnbuilder.CommercialProfile(), platform).Build()
	if err != nil {
		return err
	}
	if o.commercial && o.spec == "" {
		fmt.Fprint(w, base.Report)
		return nil
	}

	var der *tsnbuilder.Derivation
	var design *tsnbuilder.Design
	var header string
	if o.spec != "" {
		file, err := scenariofile.Load(o.spec)
		if err != nil {
			return err
		}
		sc, err := file.Scenario()
		if err != nil {
			return err
		}
		if der, err = tsnbuilder.DeriveConfig(sc); err != nil {
			return err
		}
		header = fmt.Sprintf("scenario %s: %d flows, %d-switch %s\n", o.spec, len(sc.Flows), sc.Topo.N, sc.Topo.Kind)
	} else {
		b, err := workload.Build(o.Params)
		if err != nil {
			return err
		}
		der, design = b.Der, b.Design // Build prices on the FPGA
		header = fmt.Sprintf("scenario: %d TS flows, period %dms, %dB frames, %d-switch %s, slot %dµs\n",
			o.TSFlows, workload.Period/tsnbuilder.Millisecond, o.WireSize, b.Topo.N, o.Topology, o.SlotUs)
	}
	if design == nil || o.platform != "fpga" {
		if design, err = der.Design(platform); err != nil {
			return err
		}
	}
	fmt.Fprint(w, header)
	fmt.Fprintf(w, "ITP plan: worst queue occupancy %d → depth %d, %d buffers/port\n\n",
		der.Plan.MaxOccupancy, der.Config.QueueDepth, der.Config.BufferNum)
	fmt.Fprint(w, design.Report)
	if o.spec == "" {
		fmt.Fprintf(w, "\n%s", base.Report)
	}
	fmt.Fprintf(w, "\nreduction vs commercial: %.2f%%\n", 100*design.Report.ReductionVs(base.Report))
	return nil
}
