package experiments

import (
	"fmt"
	"strings"

	"github.com/tsnbuilder/tsnbuilder/internal/resource"
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
	// run is the ring with RC+BE background on a shared pool of the given
	// size per switch (0: per-port pools). The probe's peak provisions the
	// last run, so each point runs right here, scratch-and-merge included.
	run := func(shared int) (Row, error) {
		rp := rowParams(p)
		row, err := point{rcMbps: 100, beMbps: 100, sharedBuffers: shared}.run(rp)
		if err == nil && p.Metrics != nil {
			p.Metrics.Merge(rp.Metrics)
		}
		return row, err
	}

	// Per-port pools, derived provisioning. The simulated ring switch
	// instantiates 3 ports (trunk out, trunk rx, host access).
	perPort, err := run(0)
	if err != nil {
		return nil, err
	}
	perPortTotal := perPort.BufferNum * 3
	// Shared pool: first run generously to observe the true concurrent
	// demand, then provision peak + 25 % and verify zero loss.
	probe, err := run(perPortTotal)
	if err != nil {
		return nil, err
	}
	sharedNum := probe.PoolHighWater + (probe.PoolHighWater+3)/4
	sms, err := run(sharedNum)
	if err != nil {
		return nil, err
	}
	return []SMSRow{{
		Architecture: "per-port (TSN-Builder)",
		BufferTotal:  perPortTotal,
		BufferKb:     resource.Buffers(perPort.BufferNum, 3).Kb(),
		TSLossRate:   perPort.LossRate,
		PeakUsage:    perPort.PoolHighWater, // worst single pool
	}, {
		Architecture: "shared (SMS)",
		BufferTotal:  sharedNum,
		BufferKb:     resource.SharedBuffers(sharedNum).Kb(),
		TSLossRate:   sms.LossRate,
		PeakUsage:    sms.PoolHighWater,
	}}, nil
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
