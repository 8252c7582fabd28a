package experiments

import (
	"fmt"
	"strings"

	"github.com/tsnbuilder/tsnbuilder/internal/analyzer"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/gate"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnnic"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

// PreemptRow is one MAC-configuration data point.
type PreemptRow struct {
	Config   string
	TSMean   sim.Time
	TSP99    sim.Time
	TSMax    sim.Time
	BELoss   float64
	TSJitter sim.Time
}

// PreemptStudy measures 802.1Qbu/802.3br frame preemption on an
// ungated strict-priority port: periodic express (TS) frames compete
// with saturating 1500 B best-effort traffic. Without preemption the
// express worst case includes one full MTU of head-of-line blocking
// (~12 µs at 1 Gbps); with preemption the blocking shrinks to a
// fragment boundary. (CQF hides this effect behind its guard band,
// which is why the paper's evaluation doesn't need preemption — this
// study shows what the MAC feature buys an ungated design.)
func PreemptStudy(p Params) ([]PreemptRow, error) {
	run := func(rp Params, preempt bool) (PreemptRow, error) {
		engine := sim.NewEngine()
		cfg := tsnswitch.Config{
			ID: 0, Ports: 2, QueuesPerPort: 8, QueueDepth: 64,
			BuffersPerPort: 256, UnicastSize: 16, MulticastSize: 0,
			ClassSize: 16, MeterSize: 4, GateSize: 2, CBSMapSize: 3, CBSSize: 3,
			SlotSize: 65 * sim.Microsecond, TSQueueA: 7, TSQueueB: 6,
			LinkRate: ethernet.Gbps, EnablePreemption: preempt,
		}
		sw := tsnswitch.New(engine, cfg)
		// Ungated: strict priority only.
		open := gate.AlwaysOpen(sim.Millisecond)
		for port := 0; port < cfg.Ports; port++ {
			if err := sw.SetPortSchedules(port, open, open); err != nil {
				return PreemptRow{}, err
			}
		}
		col := analyzer.NewCollector()
		src := tsnnic.New(engine, 1, ethernet.Gbps, col)
		dst := tsnnic.New(engine, 2, ethernet.Gbps, col)
		frames := new(ethernet.Pool)
		src.SetPool(frames)
		dst.SetPool(frames)
		sw.SetPool(frames)
		netdev.Connect(src.Ifc(), sw.Ifc(0), netdev.CableDelay)
		netdev.Connect(dst.Ifc(), sw.Ifc(1), netdev.CableDelay)
		if err := sw.Forward().Unicast.Add(ethernet.HostMAC(2), 1, 1); err != nil {
			return PreemptRow{}, err
		}
		if err := sw.Forward().Unicast.Add(ethernet.HostMAC(2), 2, 1); err != nil {
			return PreemptRow{}, err
		}

		// Express: 64 B every 100 µs. The period is coprime with the
		// 1500 B BE pacing, so arrivals sample every phase of the
		// interfering frame.
		ts := &flows.Spec{
			ID: 1, Class: ethernet.ClassTS, SrcHost: 1, DstHost: 2,
			VID: 1, PCP: 7, WireSize: 64, Period: 100 * sim.Microsecond,
		}
		// Background: 900 Mbps of 1500 B BE frames from a second queue
		// on the same egress port.
		be := flows.Background(2, ethernet.ClassBE, 1, 2, 2, 900*ethernet.Mbps)
		be.WireSize = 1500
		stop := rp.Duration
		src.SetStopTime(stop)
		src.StartFlow(be)
		src.StartFlow(ts)
		engine.RunUntil(stop + sim.Millisecond)

		sent := src.Sent()
		tsSum := col.Summarize(ethernet.ClassTS, sent)
		beSum := col.Summarize(ethernet.ClassBE, sent)
		label := "store-and-forward MAC"
		if preempt {
			label = "preemptive MAC (802.3br)"
		}
		return PreemptRow{
			Config: label,
			TSMean: tsSum.MeanLatency, TSP99: tsSum.P99, TSMax: tsSum.MaxLat,
			TSJitter: tsSum.Jitter, BELoss: beSum.LossRate,
		}, nil
	}

	return sweep(p, 2, func(i int, rp Params) (PreemptRow, error) {
		return run(rp, i == 1)
	})
}

// FormatPreempt renders the study.
func FormatPreempt(rows []PreemptRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E-PREEMPT — frame preemption on an ungated strict-priority port (900 Mbps BE)\n")
	fmt.Fprintf(&b, "  %-26s %10s %10s %10s %10s\n", "MAC", "TS mean", "TS p99", "TS max", "TS jitter")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-26s %8.2fµs %8.2fµs %8.2fµs %8.2fµs\n",
			r.Config, r.TSMean.Micros(), r.TSP99.Micros(), r.TSMax.Micros(), r.TSJitter.Micros())
	}
	return b.String()
}
