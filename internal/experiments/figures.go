package experiments

import (
	"fmt"
	"strconv"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// over builds a point table from an axis: one point per value.
func over(axis []int, at func(int) point) []point {
	pts := make([]point, len(axis))
	for i, v := range axis {
		pts[i] = at(v)
	}
	return pts
}

// ringSeries runs a point table as a latency series.
func ringSeries(p Params, name, xAxis string, pts []point) (*Series, error) {
	rows, err := ringSweep(p, pts)
	if err != nil {
		return nil, err
	}
	return &Series{Name: name, XAxis: xAxis, Rows: rows}, nil
}

func mbpsLabel(mbps int) string { return fmt.Sprintf("%dMbps", mbps) }

// Fig2 reproduces Fig. 2 of the motivation study: TS-flow latency under
// increasing background bandwidth — (a) BE background, (b) RC
// background — on the Case 1 / Case 2 resource configurations of
// Table I. The expected shape: latency and jitter flat, loss zero,
// identical across both configurations.
func Fig2(p Params, background string, caseCfg int) (*Series, error) {
	cfg := core.PaperCustomizedConfig(1)
	switch caseCfg {
	case 1:
		cfg.QueueDepth, cfg.BufferNum = 16, 128
	case 2:
		cfg.QueueDepth, cfg.BufferNum = 12, 96
	default:
		return nil, fmt.Errorf("experiments: unknown Table I case %d", caseCfg)
	}
	if background != "BE" && background != "RC" {
		return nil, fmt.Errorf("experiments: unknown background class %q", background)
	}
	return ringSeries(p,
		fmt.Sprintf("Fig. 2(%s) — TS latency vs %s background (Case %d)", background, background, caseCfg),
		background+"(Mbps)",
		over([]int{0, 200, 400, 600, 800}, func(mbps int) point {
			pt := point{label: mbpsLabel(mbps), x: float64(mbps), config: &cfg}
			if background == "BE" {
				pt.beMbps = mbps
			} else {
				pt.rcMbps = mbps
			}
			return pt
		}))
}

// Fig7Hops reproduces Fig. 7(a): end-to-end TS latency for flows
// traversing 1..4 switches at the 65 µs slot. Expected shape: mean
// latency ≈ hops × slot, jitter roughly constant.
func Fig7Hops(p Params) (*Series, error) {
	return ringSeries(p, "Fig. 7(a) — E2E latency under different hops", "hops",
		over([]int{1, 2, 3, 4}, func(hops int) point {
			return point{label: strconv.Itoa(hops), x: float64(hops), hops: hops}
		}))
}

// Fig7PktSize reproduces Fig. 7(b): latency under different TS packet
// sizes. Expected shape: slight increase with size (serialization).
func Fig7PktSize(p Params) (*Series, error) {
	return ringSeries(p, "Fig. 7(b) — E2E latency under different packet sizes", "size(B)",
		over([]int{64, 128, 256, 512, 1024, 1500}, func(size int) point {
			return point{label: fmt.Sprintf("%dB", size), x: float64(size), wireSize: size}
		}))
}

// slotPoint is the ring at one CQF slot size, labelled by it.
func slotPoint(us int) point {
	slot := sim.Time(us) * sim.Microsecond
	return point{label: slot.String(), x: slot.Micros(), slot: slot}
}

// Fig7Slot reproduces Fig. 7(c): latency under different slot sizes.
// Expected shape: mean latency and jitter scale with the slot.
func Fig7Slot(p Params) (*Series, error) {
	return ringSeries(p, "Fig. 7(c) — E2E latency under different time slots", "slot(µs)",
		over([]int{65, 130, 260, 520}, slotPoint))
}

// Fig7Background reproduces Fig. 7(d): RC and BE background injected
// simultaneously at equal bandwidth. Expected shape: no effect on TS
// latency or jitter, zero TS loss.
func Fig7Background(p Params) (*Series, error) {
	return ringSeries(p, "Fig. 7(d) — E2E latency under different background flows", "each(Mbps)",
		over([]int{0, 100, 200, 300, 400}, func(mbps int) point {
			return point{label: mbpsLabel(mbps), x: float64(mbps), rcMbps: mbps, beMbps: mbps}
		}))
}

// CommercialVsCustomizedQoS runs the same workload on the commercial
// resource configuration and on the derived customized one — the
// paper's headline QoS-equivalence claim (§IV.C summary).
func CommercialVsCustomizedQoS(p Params) (*Series, error) {
	commercial := core.CommercialProfile()
	return ringSeries(p, "QoS equivalence — commercial vs customized resources", "config", []point{
		{label: "commercial", rcMbps: 100, beMbps: 100, config: &commercial},
		{label: "customized", rcMbps: 100, beMbps: 100},
	})
}
