package experiments

import (
	"fmt"
	"strings"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/resource"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tas"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// TASRow compares one gate-control mechanism.
type TASRow struct {
	Mechanism   string
	Mean        sim.Time
	Jitter      sim.Time
	Max         sim.Time
	LossRate    float64
	GateEntries int
	GateKb      float64 // gate tables across the ring's enabled ports
}

// TASvsCQF runs the same TS workload under the paper's 2-entry CQF
// gate configuration and under a synthesized 802.1Qbv TAS schedule —
// the gate-size ablation of the set_gate_tbl customization API. The
// expected trade: TAS removes the per-hop slot quantization (mean
// latency drops from hops×65 µs to a few µs per hop, jitter to nearly
// zero) while the gate tables grow from 2 entries to one-plus entries
// per scheduled window.
func TASvsCQF(p Params) ([]TASRow, error) {
	return sweep(p, 2, func(i int, rp Params) (TASRow, error) {
		w, err := workload.Build(ringParams(rp))
		if err != nil {
			return TASRow{}, err
		}
		row, design := TASRow{Mechanism: "CQF (gate_size=2)", GateEntries: 2}, w.Design
		var sch *tas.Schedule
		if i == 1 {
			// No background here, so the guard band only needs to absorb a
			// TS frame.
			if sch, err = tas.Synthesize(w.Specs, w.Topo, tas.Options{MaxFrameBytes: 64}); err != nil {
				return TASRow{}, err
			}
			cfg := w.Der.Config
			cfg.GateSize = max(cfg.GateSize, sch.MaxGateEntries)
			if design, err = core.BuilderFor(cfg, nil).Build(); err != nil {
				return TASRow{}, err
			}
			row = TASRow{Mechanism: fmt.Sprintf("TAS (gate_size=%d)", sch.MaxGateEntries), GateEntries: sch.MaxGateEntries}
		}
		net, err := testbed.Build(testbed.Options{Design: design, Topo: w.Topo, Flows: w.Specs, Seed: rp.Seed})
		if err != nil {
			return TASRow{}, err
		}
		if sch != nil {
			if err := net.InstallTAS(sch); err != nil {
				return TASRow{}, err
			}
			sch.Apply(w.Specs)
		}
		net.Run(0, rp.Duration)
		s := net.Summary(ethernet.ClassTS)
		row.Mean, row.Jitter, row.Max, row.LossRate = s.MeanLatency, s.Jitter, s.MaxLat, s.LossRate
		row.GateKb = resource.GateTbl(row.GateEntries, 8, w.Topo.EnabledTSNPorts).Kb()
		return row, nil
	})
}

// FormatTAS renders the comparison.
func FormatTAS(rows []TASRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E-TAS — gate mechanism ablation (ring, 3-switch paths, no background)\n")
	fmt.Fprintf(&b, "  %-22s %10s %10s %10s %8s %8s %10s\n",
		"mechanism", "mean(µs)", "jitter(µs)", "max(µs)", "loss", "entries", "gate BRAM")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-22s %10.1f %10.2f %10.1f %7.2f%% %8d %8.0fKb\n",
			r.Mechanism, r.Mean.Micros(), r.Jitter.Micros(), r.Max.Micros(),
			100*r.LossRate, r.GateEntries, r.GateKb)
	}
	return b.String()
}
