// Package experiments regenerates every table and figure of the
// paper's evaluation (§II.A Table I/Fig. 2, §IV Table III/Fig. 7) plus
// the sync-precision claim and the ablations, against the simulated
// substrate.
//
// A study is a value. The ones that run the paper's ring are tables of
// points (figures.go, ringstudies.go): each point names what it changes
// about the ring, and ringSweep turns the table into Rows (point.run is
// the one place a point becomes a network). Catalog is the one ordered
// list of studies: cmd/tsnbench loops over it, every study benchmark in
// bench_test.go looks itself up in it by name, and a test holds
// EXPERIMENTS.md and DESIGN.md §6 to it.
//
// To add a study: its function (a point table if it runs the ring), one
// Catalog entry, one one-line benchmark under the name the entry gives
// and one EXPERIMENTS.md section with its `tsnbench -exp <id>` line;
// TestCatalogMatchesDocs names whatever is missing.
package experiments

import (
	"cmp"
	"fmt"
	"strings"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/resource"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tas"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// Row is one point of a ring study: what the TS class measured, what
// the switches were provisioned with, and what the analysis predicts
// for the point's own parameters.
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
	// HighWater is the worst TS queue occupancy observed anywhere,
	// PoolHighWater the worst concurrent usage of any switch's first
	// buffer pool (the shared one under SMS).
	HighWater, PoolHighWater int
	// QueueDepth, BufferNum and GateSize are the provisioned queue depth,
	// per-port buffer count and gate table size.
	QueueDepth, BufferNum, GateSize int
	// Bound is Eq. (1)'s upper bound on the point's paths, OutOfBound
	// each side a TS flow broke (under E-TAS, not CQF, every lower one).
	Bound      sim.Time
	OutOfBound []testbed.BoundViolation
	// Feasible is core.CheckSlotFeasibility's verdict at the slowest
	// egress a TS flow crosses: one slot's frames drain within a slot.
	Feasible bool
}

// MissRate is the fraction of received TS frames past their deadline.
func (r Row) MissRate() float64 {
	if r.Received == 0 {
		return 0
	}
	return float64(r.DeadlineMisses) / float64(r.Received)
}

// QueueBufKb is queueBufKb of the row's provisioned depth and buffers.
func (r Row) QueueBufKb() float64 { return queueBufKb(r.QueueDepth, r.BufferNum) }

// queueBufKb is Table I's sum: queue plus buffer BRAM of one 8-queue port.
func queueBufKb(depth, buffers int) float64 {
	return resource.Queues(depth, 8, 1).Kb() + resource.Buffers(buffers, 1).Kb()
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
	// worker scheduling. The exceptions build no testbed.Net and record
	// nothing: PreemptStudy (a bare switch between two NICs) and
	// SyncPrecision (a bare gPTP domain).
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

// point is one run of the paper's demo network — a 6-switch ring with
// one TSNNic host and one background injector per switch — as data: a
// row label and x value, plus what this run changes about ringParams
// and the design derived for it. A zero override keeps the default.
type point struct {
	label string
	x     float64

	hops     int      // switches traversed by each TS flow
	wireSize int      // TS frame size in bytes
	slot     sim.Time // CQF slot
	rcMbps   int      // per-source RC background
	beMbps   int      // per-source BE background
	// accessMbps runs every host access link at this rate (E-RATE); the
	// trunks stay at the design's link rate.
	accessMbps int
	// config replaces the derived resource configuration (commercial
	// profile, Table I cases); the point's slot still applies.
	config *core.Config
	// depth overrides the provisioned queue depth, with depth × 8
	// buffers behind it (E-THRESHOLD turns this knob).
	depth int
	// noITP leaves every TS flow at injection offset zero (the naive
	// baseline of the ITP ablation).
	noITP bool
	// tas gates the TS class by a synthesized 802.1Qbv schedule instead
	// of CQF's two entries, growing the gate table to hold it (E-TAS).
	tas bool
	// sharedBuffers pools this many buffers per switch across all of its
	// ports instead of a pool per port (E-SMS).
	sharedBuffers int
	// preRun touches the built network before traffic starts (E-DESYNC
	// skews clocks with it).
	preRun func(*testbed.Net)
}

// ringSweep runs every point on the worker pool and returns one Row per
// point, in order.
func ringSweep(p Params, pts []point) ([]Row, error) {
	return sweep(p, len(pts), func(i int, rp Params) (Row, error) { return pts[i].run(rp) })
}

// run is the one place a ring study becomes a network: workload.Build's
// ring, the point's overrides on top of what it derived, testbed.Build
// into rp's registry, run, summarize the TS class.
func (pt point) run(rp Params) (Row, error) {
	wp := ringParams(rp)
	wp.RCMbps, wp.BEMbps = pt.rcMbps, pt.beMbps
	wp.Hops, wp.WireSize = cmp.Or(pt.hops, wp.Hops), cmp.Or(pt.wireSize, wp.WireSize)
	wp.SlotUs = cmp.Or(int(pt.slot/sim.Microsecond), wp.SlotUs)
	w, err := workload.Build(wp)
	if err != nil {
		return Row{}, err
	}
	if pt.noITP {
		for _, s := range w.Specs {
			s.Offset = 0
		}
	}
	cfg := w.Der.Config
	if pt.config != nil {
		cfg = *pt.config
		cfg.SlotSize = sim.Time(wp.SlotUs) * sim.Microsecond
	}
	if pt.depth > 0 {
		cfg.QueueDepth, cfg.BufferNum = pt.depth, pt.depth*8
	}
	var sch *tas.Schedule
	if pt.tas {
		// The guard band only needs to absorb a TS frame: E-TAS runs no
		// background.
		if sch, err = tas.Synthesize(w.Specs, w.Topo, tas.Options{MaxFrameBytes: wp.WireSize}); err != nil {
			return Row{}, err
		}
		cfg.GateSize = max(cfg.GateSize, sch.MaxGateEntries)
	}
	design := w.Design
	if cfg != w.Der.Config {
		if design, err = core.BuilderFor(cfg, nil).Build(); err != nil {
			return Row{}, err
		}
	}
	access := ethernet.Rate(pt.accessMbps) * ethernet.Mbps
	net, err := testbed.Build(testbed.Options{
		Design: design, Topo: w.Topo, Flows: w.Specs,
		AccessRate: access, SharedBufferNum: pt.sharedBuffers,
		Seed: rp.Seed, Metrics: rp.Metrics,
	})
	if err != nil {
		return Row{}, err
	}
	if sch != nil {
		if err := net.InstallTAS(sch); err != nil {
			return Row{}, err
		}
		sch.Apply(w.Specs)
	}
	if pt.preRun != nil {
		pt.preRun(net)
	}
	net.Run(0, rp.Duration)
	s := net.Summary(ethernet.ClassTS)
	pool := 0
	for _, sw := range net.Switches {
		pool = max(pool, sw.Port(0).Pool().HighWater())
	}
	_, bound := testbed.CQFBound(wp.Hops, cfg.SlotSize)
	return Row{
		Label: pt.label, X: pt.x,
		Mean: s.MeanLatency, Jitter: s.Jitter, Min: s.MinLat, Max: s.MaxLat,
		LossRate: s.LossRate, Sent: s.Sent, Received: s.Received,
		DeadlineMisses: s.DeadlineMisses,
		HighWater:      net.MaxQueueHighWater(),
		PoolHighWater:  pool,
		QueueDepth:     cfg.QueueDepth,
		BufferNum:      cfg.BufferNum,
		GateSize:       cfg.GateSize,
		Bound:          bound,
		OutOfBound:     net.CheckCQFBound(),
		Feasible:       len(core.CheckSlotFeasibility(w.Der.Plan, cmp.Or(access, cfg.LinkRate), wp.WireSize)) == 0,
	}, nil
}
