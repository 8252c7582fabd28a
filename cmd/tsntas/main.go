// Command tsntas synthesizes an 802.1Qbv Time-Aware Shaper schedule
// for a scenario and prints it: per-port transmission windows, the
// compiled gate control lists, per-flow injection offsets and
// worst-case latency bounds — the artifact an engineer would load into
// the switches' gate tables.
//
// The generated scenario is workload.Scenario's, from the same flags
// as tsnsim, but for -slot, which is refused: a TAS schedule has no CQF
// slot. The summary's tightest deadline slack is the least
// Deadline − worst-case latency over flows.
//
// Example:
//
//	tsntas -spec examples/scenarios/production-line.json
//	tsntas -topology bidir-ring -switches 8 -flows 64 -hops 3
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"sort"

	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/scenariofile"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tas"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// options is one tsntas invocation: the workload its scenario flags
// describe plus what only tsntas prints.
type options struct {
	workload.Params
	spec    string
	guardUs int
	verbose bool
	slotSet bool // -slot given: refused, a TAS schedule has no CQF slot
}

// parseFlags binds argv into options; a bad flag exits 2.
func parseFlags(args []string) *options {
	o := &options{Params: workload.Params{Topology: "ring", Switches: 6, TSFlows: 64, Hops: 3,
		WireSize: 64, SlotUs: 65, Seed: 42}}
	fs := flag.NewFlagSet("tsntas", flag.ExitOnError)
	o.Bind(fs)
	fs.StringVar(&o.spec, "spec", "", "JSON scenario file (overrides the workload flags)")
	fs.IntVar(&o.guardUs, "guard", 2, "per-window guard slack (µs)")
	fs.BoolVar(&o.verbose, "v", false, "print every window")
	_ = fs.Parse(args) // ExitOnError: Parse exits instead of returning an error
	fs.Visit(func(f *flag.Flag) { o.slotSet = o.slotSet || f.Name == "slot" })
	return o
}

func main() {
	if err := run(parseFlags(os.Args[1:]), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "tsntas:", err)
		os.Exit(1)
	}
}

func run(o *options, out io.Writer) error {
	if o.slotSet {
		return fmt.Errorf("-slot: a TAS schedule has no CQF slot")
	}
	var topo *topology.Topology
	var specs []*flows.Spec
	if o.spec != "" {
		file, err := scenariofile.Load(o.spec)
		if err != nil {
			return err
		}
		if topo, specs, err = file.Build(); err != nil {
			return err
		}
	} else {
		b, err := workload.Scenario(o.Params)
		if err != nil {
			return err
		}
		topo, specs = b.Topo, b.Specs
	}

	sch, err := tas.Synthesize(specs, topo, tas.Options{
		Guard:         sim.Time(o.guardUs) * sim.Microsecond,
		MaxFrameBytes: 1522,
	})
	if err != nil {
		return err
	}

	fmt.Fprintf(out, "schedule cycle: %v, guard band: %v, max gate entries: %d\n\n",
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
		fmt.Fprintf(out, "sw%d port %d: %3d windows, %6.2f%% of cycle reserved\n",
			pk.Switch, pk.Port, len(ws), util)
		if o.verbose {
			for _, w := range ws {
				fmt.Fprintf(out, "    [%10v, %10v) flow %d\n", w.Start, w.End, w.FlowID)
			}
		}
	}

	// Worst-case bounds per flow (summarized), and the tightest deadline
	// slack: the least Deadline − WorstCaseLatency over flows.
	var worst, sum, slack sim.Time
	var worstFlow, slackFlow uint32
	tsCount := 0
	for _, s := range specs {
		if _, ok := sch.Offsets[s.ID]; !ok {
			continue
		}
		wc, err := sch.WorstCaseLatency(s, topo)
		if err != nil {
			return err
		}
		if tsCount == 0 || s.Deadline-wc < slack {
			slack, slackFlow = s.Deadline-wc, s.ID
		}
		tsCount++
		sum += wc
		if wc > worst {
			worst, worstFlow = wc, s.ID
		}
	}
	if tsCount > 0 {
		fmt.Fprintf(out, "\nworst-case latency: %v (flow %d); mean bound: %v across %d flows; tightest deadline slack: %v (flow %d)\n",
			worst, worstFlow, sum/sim.Time(tsCount), tsCount, slack, slackFlow)
	}
	return nil
}
