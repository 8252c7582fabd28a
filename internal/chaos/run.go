package chaos

import (
	"bytes"
	"fmt"
	"strings"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// txnRecord tracks one mid-run reconfiguration for the atomicity
// oracle: the configuration in force when the transaction began, the
// candidate it tried to reach, and the transaction itself (nil when
// the begin instant fell outside the run).
type txnRecord struct {
	pre, cand core.Config
	txn       *reconfig.Txn
	beginErr  error
}

// Execute runs one case in a fresh simulation and applies every
// invariant oracle to the outcome. The returned error means the case
// could not be constructed or run at all — an infrastructure problem,
// distinct from a Result with violations, which means the system under
// test broke an invariant.
func Execute(c Case) (*Result, error) {
	wl, err := workload.Build(c.params())
	if err != nil {
		return nil, fmt.Errorf("chaos: case %d workload: %w", c.Index, err)
	}
	var scenario *faults.Scenario
	if len(c.Faults) > 0 {
		scenario = &faults.Scenario{Faults: c.Faults}
		if err := scenario.Validate(); err != nil {
			return nil, fmt.Errorf("chaos: case %d: %w", c.Index, err)
		}
	}
	reg := metrics.New()
	net, err := testbed.Build(testbed.Options{
		Design: wl.Design, Topo: wl.Topo, Flows: wl.Specs,
		Metrics: reg, Seed: c.Seed,
		Faults:         scenario,
		EnableWatchdog: c.Watchdog,
	})
	if err != nil {
		return nil, fmt.Errorf("chaos: case %d build: %w", c.Index, err)
	}
	if c.RetryMax > 0 {
		net.Reconfig.SetRetryPolicy(c.RetryMax, sim.Time(c.RetryBackoffUs)*sim.Microsecond)
	}
	var txns []*txnRecord
	if c.Reconfig != nil && !c.Reconfig.Empty() {
		rec := &txnRecord{}
		txns = append(txns, rec)
		d := c.Reconfig
		net.Engine.At(sim.Time(d.AtUs)*sim.Microsecond, "chaos:reconfig", func(*sim.Engine) {
			rec.pre = net.LiveConfig()
			rec.cand = d.Candidate(rec.pre)
			rec.txn, rec.beginErr = net.Reconfigure(rec.cand)
		})
	}
	net.Run(0, c.dur())

	res := &Result{Case: c, Events: net.Engine.Executed()}
	res.Violations = checkOracles(&c, net, reg, txns)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("chaos: case %d metrics export: %w", c.Index, err)
	}
	res.MetricsJSON = buf.Bytes()
	return res, nil
}

// parityStrip reduces a case to the feature set the partitioned build
// supports: no faults, no mid-run reconfiguration, no watchdog, no
// FRER. The workload itself (topology, flows, background, seed,
// duration) is untouched, so the comparison still covers the full
// forwarding, gating and shaping dataplane.
func parityStrip(c Case) Case {
	c.Faults = nil
	c.Reconfig = nil
	c.Watchdog = false
	c.FRERFlows = 0
	c.FRERCovered = false
	c.RetryMax = 0
	c.RetryBackoffUs = 0
	return c
}

// stripHeapGauge drops the scheduler heap-depth gauge's value lines
// from a Prometheus export — the one metric serial and partitioned
// runs legitimately disagree on (per-partition heaps have their own
// high waters; the merge keeps the maximum).
func stripHeapGauge(export string) string {
	lines := strings.Split(export, "\n")
	out := lines[:0]
	for _, l := range lines {
		if strings.HasPrefix(l, "tsn_sim_heap_depth_high_water ") {
			continue
		}
		out = append(out, l)
	}
	return strings.Join(out, "\n")
}

// CheckPartitionParity is the partition-parity oracle: it re-runs the
// sampled case — stripped to the partitionable feature set — once on
// the serial engine and once sharded across the given partition count,
// and byte-compares the two metrics exports (heap-depth gauge
// normalized). A nil return means parity held; a non-nil Violation
// means the parallel simulator diverged from the serial schedule, the
// determinism contract tsnsim -partitions promises.
func CheckPartitionParity(c Case, partitions int) *Violation {
	s := parityStrip(c)
	run := func(parts int) (string, error) {
		wl, err := workload.Build(s.params())
		if err != nil {
			return "", err
		}
		reg := metrics.New()
		net, err := testbed.Build(testbed.Options{
			Design: wl.Design, Topo: wl.Topo, Flows: wl.Specs,
			Metrics: reg, Seed: s.Seed,
			Partitions: parts,
		})
		if err != nil {
			return "", err
		}
		net.Run(0, s.dur())
		var b strings.Builder
		if err := reg.Snapshot().WritePrometheus(&b); err != nil {
			return "", err
		}
		return b.String(), nil
	}
	serial, err := run(0)
	if err != nil {
		return &Violation{Oracle: OracleParity, Detail: fmt.Sprintf("serial re-run errored: %v", err)}
	}
	par, err := run(partitions)
	if err != nil {
		return &Violation{Oracle: OracleParity, Detail: fmt.Sprintf("partitions=%d run errored: %v", partitions, err)}
	}
	if a, b := stripHeapGauge(serial), stripHeapGauge(par); a != b {
		return &Violation{Oracle: OracleParity, Detail: fmt.Sprintf(
			"partitions=%d metrics diverged from serial (%d vs %d bytes after heap-gauge normalization)",
			partitions, len(a), len(b))}
	}
	return nil
}
