package experiments

import (
	"fmt"
	"strings"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// CBSRow is one shaping-configuration data point.
type CBSRow struct {
	Config   string
	RCMean   sim.Time
	RCJitter sim.Time
	BEMean   sim.Time
	BEMax    sim.Time
	BEP99    sim.Time
	BELoss   float64
}

// CBSStudy isolates the Egress Sched template's credit-based shapers:
// a bursty rate-constrained flow (32-frame bursts at its reserved
// average rate) shares one egress port with steady best-effort
// traffic. Without CBS the whole RC burst drains at line rate and the
// BE class stalls for the burst duration; with CBS the burst is spread
// at the idle slope, so the BE tail latency collapses — "shapers
// limiting the bandwidth of RC queues for alleviating the traffic
// burst" (§III.A).
func CBSStudy(p Params) ([]CBSRow, error) {
	build := func(rp Params, disableCBS bool) (*testbed.Net, error) {
		topo := topology.Ring(3)
		topo.AttachHost(100, 0) // RC source
		topo.AttachHost(101, 0) // BE source
		topo.AttachHost(102, 1) // sink
		// Background IDs clear of the TS flows' 1..4: an ID names one flow.
		rc := flows.Background(101, ethernet.ClassRC, 100, 102, 10, 200*ethernet.Mbps)
		rc.Burst = 32
		be := flows.Background(102, ethernet.ClassBE, 101, 102, 11, 300*ethernet.Mbps)
		specs := []*flows.Spec{rc, be}
		// A token TS flow keeps the scenario derivable (DeriveConfig
		// requires TS flows for the ITP pass).
		ts := flows.GenerateTS(flows.TSParams{
			Count: 4, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
			Hosts: func(i int) (int, int) { return 100, 102 },
			Seed:  rp.Seed,
		})
		for i, s := range ts {
			s.VID = uint16(100 + i)
		}
		specs = append(specs, ts...)
		if err := core.BindPaths(topo, specs); err != nil {
			return nil, err
		}
		der, err := core.DeriveConfig(core.Scenario{Topo: topo, Flows: specs})
		if err != nil {
			return nil, err
		}
		der.Plan.Apply(specs)
		cfg := der.Config
		// Bursts of 32 frames need queue/buffer room beyond the TS-only
		// derivation.
		if cfg.QueueDepth < 64 {
			cfg.QueueDepth = 64
		}
		cfg.BufferNum = cfg.QueueDepth * cfg.QueueNum
		design, err := core.BuilderFor(cfg, nil).Build()
		if err != nil {
			return nil, err
		}
		return testbed.Build(testbed.Options{
			Design: design, Topo: topo, Flows: specs,
			DisableCBS: disableCBS, Seed: rp.Seed, Metrics: rp.Metrics,
		})
	}

	configs := []struct {
		label   string
		disable bool
	}{
		{"strict priority only", true},
		{"CBS shaped", false},
	}
	return sweep(p, len(configs), func(i int, rp Params) (CBSRow, error) {
		c := configs[i]
		net, err := build(rp, c.disable)
		if err != nil {
			return CBSRow{}, err
		}
		net.Run(0, rp.Duration)
		rc := net.Summary(ethernet.ClassRC)
		be := net.Summary(ethernet.ClassBE)
		return CBSRow{
			Config: c.label,
			RCMean: rc.MeanLatency, RCJitter: rc.Jitter,
			BEMean: be.MeanLatency, BEMax: be.MaxLat, BEP99: be.P99,
			BELoss: be.LossRate,
		}, nil
	})
}

// FormatCBS renders the study.
func FormatCBS(rows []CBSRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E-CBS — credit-based shaping vs bare strict priority (bursty RC + steady BE)\n")
	fmt.Fprintf(&b, "  %-22s %10s %10s %10s %10s %10s\n",
		"config", "RC mean", "RC jitter", "BE mean", "BE p99", "BE max")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-22s %8.1fµs %8.1fµs %8.1fµs %8.1fµs %8.1fµs\n",
			r.Config, r.RCMean.Micros(), r.RCJitter.Micros(),
			r.BEMean.Micros(), r.BEP99.Micros(), r.BEMax.Micros())
	}
	return b.String()
}
