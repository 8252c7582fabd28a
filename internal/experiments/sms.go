package experiments

import (
	"fmt"
	"strings"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/resource"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// SMSRow is one buffer-architecture data point.
type SMSRow struct {
	Architecture string
	BufferTotal  int // buffers provisioned per switch
	BufferKb     float64
	TSLossRate   float64
	PeakUsage    int // worst concurrent buffer usage observed
}

// SMSStudy compares the paper's per-port buffer pools against the
// switch-memory-switch (SMS) shared-pool architecture of §VI/ref [16]:
// SMS shares buffers among all ports, so statistical multiplexing lets
// a smaller total pool carry the same traffic without loss. TSN-Builder
// addresses the same waste by customizing the per-port parameters; this
// study quantifies both against each other on the ring workload with
// RC+BE background.
func SMSStudy(p Params) ([]SMSRow, error) {
	build := func(shared int) (*testbed.Net, *core.Derivation, error) {
		wp := ringParams(p)
		wp.RCMbps, wp.BEMbps = 100, 100
		w, err := workload.Build(wp)
		if err != nil {
			return nil, nil, err
		}
		net, err := testbed.Build(testbed.Options{
			Design: w.Design, Topo: w.Topo, Flows: w.Specs,
			SharedBufferNum: shared, Seed: p.Seed,
		})
		if err != nil {
			return nil, nil, err
		}
		return net, w.Der, nil
	}

	peakShared := func(net *testbed.Net) int {
		worst := 0
		for s := range net.Switches {
			if hw := net.Switches[s].PoolHighWater(0); hw > worst {
				worst = hw
			}
		}
		return worst
	}

	var rows []SMSRow

	// Per-port pools, derived provisioning. The simulated ring switch
	// instantiates 3 ports (trunk out, trunk rx, host access).
	netPP, der, err := build(0)
	if err != nil {
		return nil, err
	}
	netPP.Run(0, p.Duration)
	lossPP := netPP.Summary(ethernet.ClassTS).LossRate
	perPortTotal := der.Config.BufferNum * 3
	rows = append(rows, SMSRow{
		Architecture: "per-port (TSN-Builder)",
		BufferTotal:  perPortTotal,
		BufferKb:     resource.Buffers(der.Config.BufferNum, 3).Kb(),
		TSLossRate:   lossPP,
		PeakUsage:    peakShared(netPP), // worst single pool
	})

	// Shared pool: first run generously to observe the true concurrent
	// demand, then provision peak + 25 % and verify zero loss.
	probe, _, err := build(perPortTotal)
	if err != nil {
		return nil, err
	}
	probe.Run(0, p.Duration)
	peak := peakShared(probe)
	sharedNum := peak + (peak+3)/4
	netSMS, _, err := build(sharedNum)
	if err != nil {
		return nil, err
	}
	netSMS.Run(0, p.Duration)
	rows = append(rows, SMSRow{
		Architecture: "shared (SMS)",
		BufferTotal:  sharedNum,
		BufferKb:     resource.SharedBuffers(sharedNum).Kb(),
		TSLossRate:   netSMS.Summary(ethernet.ClassTS).LossRate,
		PeakUsage:    peakShared(netSMS),
	})
	return rows, nil
}

// FormatSMS renders the study.
func FormatSMS(rows []SMSRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E-SMS — buffer architecture ablation (per switch, ring + background)\n")
	fmt.Fprintf(&b, "  %-24s %10s %12s %8s %10s\n", "architecture", "buffers", "BRAM", "TS loss", "peak use")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-24s %10d %10.1fKb %7.2f%% %10d\n",
			r.Architecture, r.BufferTotal, r.BufferKb, 100*r.TSLossRate, r.PeakUsage)
	}
	return b.String()
}
