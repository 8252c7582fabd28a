package experiments

import (
	"fmt"
	"strings"

	"github.com/tsnbuilder/tsnbuilder/internal/clock"
	"github.com/tsnbuilder/tsnbuilder/internal/resource"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// The ring studies beyond the paper's figures. Each is a point table
// over the same ring (3-switch paths, 64 B frames, 65 µs slot unless
// the point says otherwise) and a formatter that picks its columns out
// of Row.

// DeadlineStudy connects the slot-size sweep of Fig. 7(c) to the
// paper's IEC 60802-guided deadline set {1,2,4,8 ms}: CQF's upper bound
// (testbed.CQFBound) must stay below the tightest deadline. With 3-switch
// paths the 65 µs slot leaves three orders of magnitude of margin;
// pushing the slot toward 260 µs and beyond erodes it until the 1 ms
// deadline class starts missing.
func DeadlineStudy(p Params) ([]Row, error) {
	return ringSweep(p, over([]int{65, 130, 260, 390, 520}, slotPoint))
}

// FormatDeadline renders the study.
func FormatDeadline(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E-DEADLINE — slot size vs deadline misses (deadlines {1,2,4,8}ms, 3-switch paths)\n")
	fmt.Fprintf(&b, "  %-8s %10s %10s %12s %10s\n", "slot", "mean(µs)", "max(µs)", "bound(µs)", "misses")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-8s %10.1f %10.1f %12.1f %9.2f%%\n",
			r.Label, r.Mean.Micros(), r.Max.Micros(), r.Bound.Micros(), 100*r.MissRate())
	}
	return b.String()
}

// DesyncStudy quantifies what the Time Sync template buys: CQF's
// determinism (Eq. (1)) rests on neighboring switches agreeing on slot
// boundaries. The study forces a static clock error (the row's X, in
// µs) onto every other switch in the ring. An offset inside the slot
// lets frames cross a neighbor's slot boundary early: they skip a slot,
// breaking Eq. (1)'s lower bound, and split between two departure
// slots, inflating jitter and the queue high water. A whole slot's
// offset is invisible; gPTP keeps clocks within 50 ns.
func DesyncStudy(p Params) ([]Row, error) {
	return ringSweep(p, over([]int{0, 1, 8, 16, 32, 65}, func(us int) point {
		offset := sim.Time(us) * sim.Microsecond
		return point{label: offset.String(), x: offset.Micros(), preRun: func(net *testbed.Net) {
			for s, sw := range net.Switches {
				if s%2 == 1 {
					sw.Clock = clock.New(0, offset)
				}
			}
		}}
	}))
}

// FormatDesync renders the study.
func FormatDesync(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E-DESYNC — CQF under clock desynchronization (ring, 3-switch paths, slot 65µs)\n")
	fmt.Fprintf(&b, "  %-10s %10s %10s %10s %8s %8s %10s\n",
		"offset", "mean(µs)", "jitter(µs)", "max(µs)", "loss", "bounds", "highwater")
	for _, r := range rows {
		ok := "held"
		if len(r.OutOfBound) > 0 {
			ok = "BROKEN"
		}
		fmt.Fprintf(&b, "  %-10s %10.1f %10.2f %10.1f %7.2f%% %8s %10d\n",
			r.Label, r.Mean.Micros(), r.Jitter.Micros(), r.Max.Micros(),
			100*r.LossRate, ok, r.HighWater)
	}
	return b.String()
}

// ThresholdStudy substantiates the paper's motivation claim behind
// Table I: "the resource parameters in Case 1 are larger than the
// traffic-dependent threshold and the extra memory resources are free."
// It sweeps the queue depth (buffers = depth × queues) below and above
// the ITP-planned occupancy and reports where TS loss appears. The
// expected shape: zero loss and unchanged latency above the threshold,
// loss below it.
func ThresholdStudy(p Params) ([]Row, error) {
	return ringSweep(p, over([]int{1, 2, 3, 4, 6, 8, 12, 16}, func(depth int) point {
		return point{x: float64(depth), depth: depth, rcMbps: 100, beMbps: 100}
	}))
}

// NoITPStudy runs the same network with planned (row 0) versus naive
// zero (row 1) injection offsets on the same small provisioning, showing
// that ITP is what keeps the customized depth feasible at run time.
func NoITPStudy(p Params, depth int) ([]Row, error) {
	return ringSweep(p, []point{{label: "planned", depth: depth}, {label: "naive", depth: depth, noITP: true}})
}

// FormatThreshold renders the study.
func FormatThreshold(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E-THRESHOLD — queue/buffer provisioning vs TS loss (ring, 3 hops, 100+100 Mbps bg)\n")
	fmt.Fprintf(&b, "  %6s %8s %12s %8s %10s %10s %10s\n",
		"depth", "buffers", "queue+buf", "loss", "mean(µs)", "jitter(µs)", "highwater")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %6d %8d %10.0fKb %7.2f%% %10.1f %10.2f %10d\n",
			r.QueueDepth, r.BufferNum, r.QueueBufKb(), 100*r.LossRate,
			r.Mean.Micros(), r.Jitter.Micros(), r.HighWater)
	}
	return b.String()
}

// FormatNoITP renders NoITPStudy's pair as the line that closes
// E-THRESHOLD.
func FormatNoITP(rows []Row) string {
	planned, naive := rows[0], rows[1]
	return fmt.Sprintf("  with depth %d: planned-injection loss %.2f%%, naive-injection loss %.2f%% (highwater %d vs %d)\n",
		planned.QueueDepth, 100*planned.LossRate, 100*naive.LossRate, planned.HighWater, naive.HighWater)
}

// RateStudy probes mixed-speed networks: 1 Gbps trunks with slower
// host access links. CQF's feasibility constraint — one slot's frames
// must drain within a slot — binds at the slowest egress a TS flow
// crosses. The study sweeps the access rate at a fixed 65 µs slot and
// shows the analytical CheckSlotFeasibility verdict (Row.Feasible)
// agreeing with the simulated outcome: feasible rates keep zero loss
// and bounded latency; infeasible ones back up the access port until
// frames drop.
func RateStudy(p Params) ([]Row, error) {
	return ringSweep(p, over([]int{1000, 100, 30, 10}, func(mbps int) point {
		return point{label: mbpsLabel(mbps), x: float64(mbps), accessMbps: mbps}
	}))
}

// FormatRate renders the study.
func FormatRate(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E-RATE — mixed-speed access links vs the 65µs CQF slot\n")
	fmt.Fprintf(&b, "  %-10s %10s %10s %10s %8s\n", "access", "feasible?", "mean(µs)", "max(µs)", "loss")
	for _, r := range rows {
		feasible := "yes"
		if !r.Feasible {
			feasible = "NO"
		}
		fmt.Fprintf(&b, "  %10s %10s %10.1f %10.1f %7.2f%%\n",
			r.Label, feasible, r.Mean.Micros(), r.Max.Micros(), 100*r.LossRate)
	}
	return b.String()
}

// TASvsCQF runs the same TS workload under the paper's 2-entry CQF
// gate configuration and under a synthesized 802.1Qbv TAS schedule —
// the gate-size ablation of the set_gate_tbl customization API. The
// expected trade: TAS removes the per-hop slot quantization (mean
// latency drops from hops×65 µs to a few µs per hop, jitter to nearly
// zero) while the gate tables grow from 2 entries to one-plus entries
// per scheduled window (Row.GateSize).
func TASvsCQF(p Params) ([]Row, error) {
	return ringSweep(p, []point{{label: "CQF"}, {label: "TAS", tas: true}})
}

// FormatTAS renders the comparison. The gate BRAM is per switch: the
// ring enables one TSN port of 8 queues.
func FormatTAS(rows []Row) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E-TAS — gate mechanism ablation (ring, 3-switch paths, no background)\n")
	fmt.Fprintf(&b, "  %-22s %10s %10s %10s %8s %8s %10s\n",
		"mechanism", "mean(µs)", "jitter(µs)", "max(µs)", "loss", "entries", "gate BRAM")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-22s %10.1f %10.2f %10.1f %7.2f%% %8d %8.0fKb\n",
			fmt.Sprintf("%s (gate_size=%d)", r.Label, r.GateSize),
			r.Mean.Micros(), r.Jitter.Micros(), r.Max.Micros(),
			100*r.LossRate, r.GateSize, resource.GateTbl(r.GateSize, 8, 1).Kb())
	}
	return b.String()
}
