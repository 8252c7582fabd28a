package experiments

import (
	"fmt"
	"strings"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// RateRow is one access-rate data point.
type RateRow struct {
	AccessMbps int
	SlotUs     int
	Feasible   bool // per the analytical check
	TSMean     sim.Time
	TSMax      sim.Time
	TSLossRate float64
}

// RateStudy probes mixed-speed networks: 1 Gbps trunks with slower
// host access links. CQF's feasibility constraint — one slot's frames
// must drain within a slot — binds at the slowest egress a TS flow
// crosses. The study sweeps the access rate at a fixed 65 µs slot and
// shows the analytical CheckSlotFeasibility verdict agreeing with the
// simulated outcome: feasible rates keep zero loss and bounded
// latency; infeasible ones back up the access port until frames drop.
func RateStudy(p Params) ([]RateRow, error) {
	rates := []int{1000, 100, 30, 10}
	return sweep(p, len(rates), func(i int, rp Params) (RateRow, error) {
		wp := ringParams(rp)
		w, err := workload.Build(wp)
		if err != nil {
			return RateRow{}, err
		}
		rate := ethernet.Rate(rates[i]) * ethernet.Mbps
		issues := core.CheckSlotFeasibility(w.Der.Plan, rate, 64)
		net, err := testbed.Build(testbed.Options{
			Design: w.Design, Topo: w.Topo, Flows: w.Specs,
			AccessRate: rate, Seed: rp.Seed,
		})
		if err != nil {
			return RateRow{}, err
		}
		net.Run(0, rp.Duration)
		s := net.Summary(ethernet.ClassTS)
		return RateRow{
			AccessMbps: rates[i],
			SlotUs:     wp.SlotUs,
			Feasible:   len(issues) == 0,
			TSMean:     s.MeanLatency,
			TSMax:      s.MaxLat,
			TSLossRate: s.LossRate,
		}, nil
	})
}

// FormatRate renders the study.
func FormatRate(rows []RateRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E-RATE — mixed-speed access links vs the 65µs CQF slot\n")
	fmt.Fprintf(&b, "  %-10s %10s %10s %10s %8s\n", "access", "feasible?", "mean(µs)", "max(µs)", "loss")
	for _, r := range rows {
		feasible := "yes"
		if !r.Feasible {
			feasible = "NO"
		}
		fmt.Fprintf(&b, "  %6dMbps %10s %10.1f %10.1f %7.2f%%\n",
			r.AccessMbps, feasible, r.TSMean.Micros(), r.TSMax.Micros(), 100*r.TSLossRate)
	}
	return b.String()
}
