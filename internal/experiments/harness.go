// Package experiments regenerates every table and figure of the
// paper's evaluation (§II.A Table I/Fig. 2, §IV Table III/Fig. 7) plus
// the sync-precision claim and an ITP ablation, against the simulated
// substrate. Each experiment returns structured rows; cmd/tsnbench
// prints them and bench_test.go wraps them as benchmarks.
package experiments

import (
	"fmt"
	"strings"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// Row is one data point of a latency experiment.
type Row struct {
	// Label names the x value ("2 hops", "512B", "200Mbps"...).
	Label string
	// X is the numeric x value for plotting.
	X float64
	// TS-flow metrics.
	Mean, Jitter, Min, Max sim.Time
	LossRate               float64
	Sent, Received         uint64
	DeadlineMisses         uint64
}

// Series is one experiment's output: an x-axis sweep of Rows.
type Series struct {
	Name  string
	XAxis string
	Rows  []Row
}

// String renders the series as an aligned table in µs, the paper's
// unit.
func (s *Series) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", s.Name)
	fmt.Fprintf(&b, "  %-12s %10s %10s %10s %10s %8s %8s\n",
		s.XAxis, "mean(µs)", "jitter(µs)", "min(µs)", "max(µs)", "loss", "sent")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "  %-12s %10.1f %10.2f %10.1f %10.1f %7.2f%% %8d\n",
			r.Label, r.Mean.Micros(), r.Jitter.Micros(), r.Min.Micros(), r.Max.Micros(),
			100*r.LossRate, r.Sent)
	}
	return b.String()
}

// CSV renders the series as comma-separated rows for external
// plotting tools.
func (s *Series) CSV() string {
	var b strings.Builder
	fmt.Fprintf(&b, "x,label,mean_us,jitter_us,min_us,max_us,loss,sent,received,deadline_misses\n")
	for _, r := range s.Rows {
		fmt.Fprintf(&b, "%g,%s,%.3f,%.3f,%.3f,%.3f,%.6f,%d,%d,%d\n",
			r.X, r.Label, r.Mean.Micros(), r.Jitter.Micros(), r.Min.Micros(),
			r.Max.Micros(), r.LossRate, r.Sent, r.Received, r.DeadlineMisses)
	}
	return b.String()
}

// Params scales the experiments; DefaultParams matches the paper,
// ShortParams keeps unit tests fast.
type Params struct {
	// TSFlows is the TS flow count (paper: 1024).
	TSFlows int
	// Duration is the measured traffic window.
	Duration sim.Time
	// Seed drives workload randomization.
	Seed uint64
	// Metrics, when non-nil, instruments every built network into this
	// registry (cmd/tsnbench -metrics). Under the parallel harness each
	// sweep point instruments a scratch registry that is merged back in
	// sweep order (see pool.go), so the export does not depend on
	// worker scheduling.
	Metrics *metrics.Registry
	// Parallel bounds the sweep worker pool: sweep points (independent
	// build-and-run pairs) run on up to this many goroutines. 1 is
	// fully serial; 0 (the default) uses runtime.GOMAXPROCS(0). Output
	// is byte-identical at every setting.
	Parallel int
}

// DefaultParams reproduces the paper's workload scale.
func DefaultParams() Params {
	return Params{TSFlows: 1024, Duration: 100 * sim.Millisecond, Seed: 42}
}

// ShortParams is a reduced scale for -short test runs.
func ShortParams() Params {
	return Params{TSFlows: 128, Duration: 50 * sim.Millisecond, Seed: 42}
}

// ringBench is the paper's demo network, built and programmed: a
// 6-switch ring with one TSNNic host and one background injector per
// switch, TS flows of a fixed hop count (number of switches traversed),
// optional RC/BE background, and a derived (customized) or commercial
// design.
type ringBench struct {
	Net *testbed.Net
}

// benchSpec configures buildRing.
type benchSpec struct {
	p         Params
	hops      int // switches traversed by each TS flow
	wireSize  int
	slot      sim.Time
	rcMbps    int // per-source RC background
	beMbps    int // per-source BE background
	useConfig *core.Config
	// noITP leaves every TS flow at injection offset zero (the naive
	// baseline of the ITP ablation).
	noITP bool
	// queueDepth/bufferNum override the derived provisioning when > 0
	// (the Table I threshold study turns these knobs).
	queueDepth int
	bufferNum  int
}

// ringParams is the paper's ring as a workload.Build input at the
// evaluation's defaults: 64 B frames over 3 switches, 65 µs slot, no
// background. Background flows run from the first three injectors over
// as many hops as the TS flows, so they share trunks with them.
func ringParams(p Params) workload.Params {
	return workload.Params{
		Topology: "ring", Switches: 6, TSFlows: p.TSFlows,
		Hops: 3, WireSize: 64, SlotUs: 65, Seed: p.Seed,
	}
}

// buildRing constructs and programs the network: workload.Build's ring,
// then the spec's overrides on top of what it derived.
func buildRing(bs benchSpec) (*ringBench, error) {
	wp := ringParams(bs.p)
	wp.RCMbps, wp.BEMbps = bs.rcMbps, bs.beMbps
	if bs.hops != 0 {
		wp.Hops = bs.hops
	}
	if bs.wireSize != 0 {
		wp.WireSize = bs.wireSize
	}
	if bs.slot != 0 {
		wp.SlotUs = int(bs.slot / sim.Microsecond)
	}
	w, err := workload.Build(wp)
	if err != nil {
		return nil, err
	}
	if bs.noITP {
		for _, s := range w.Specs {
			s.Offset = 0
		}
	}
	cfg := w.Der.Config
	if bs.useConfig != nil {
		cfg = *bs.useConfig
		cfg.SlotSize = sim.Time(wp.SlotUs) * sim.Microsecond
	}
	if bs.queueDepth > 0 {
		cfg.QueueDepth = bs.queueDepth
	}
	if bs.bufferNum > 0 {
		cfg.BufferNum = bs.bufferNum
	}
	design := w.Design
	if cfg != w.Der.Config {
		if design, err = core.BuilderFor(cfg, nil).Build(); err != nil {
			return nil, err
		}
	}
	net, err := testbed.Build(testbed.Options{
		Design:  design,
		Topo:    w.Topo,
		Flows:   w.Specs,
		Seed:    bs.p.Seed,
		Metrics: bs.p.Metrics,
	})
	if err != nil {
		return nil, err
	}
	return &ringBench{Net: net}, nil
}

// run executes the scenario and summarizes the TS class.
func (rb *ringBench) run(p Params, warmup sim.Time) Row {
	rb.Net.Run(warmup, p.Duration)
	s := rb.Net.Summary(ethernet.ClassTS)
	return Row{
		Mean: s.MeanLatency, Jitter: s.Jitter, Min: s.MinLat, Max: s.MaxLat,
		LossRate: s.LossRate, Sent: s.Sent, Received: s.Received,
		DeadlineMisses: s.DeadlineMisses,
	}
}
