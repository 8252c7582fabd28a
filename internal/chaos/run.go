package chaos

import (
	"bytes"
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// TxnRecord tracks a case's mid-run reconfiguration for the atomicity
// oracle and tsnsim's report: the configuration in force when the
// transaction began, the candidate it tried to reach, and the
// transaction itself (nil when the begin instant fell outside the run
// or Begin rejected the candidate with BeginErr).
type TxnRecord struct {
	Pre, Cand core.Config
	Txn       *reconfig.Txn
	BeginErr  error
}

// Build turns c into a network ready to Run: its workload, fault
// script, watchdog and mid-run reconfiguration.
// opts carries what a case does not describe — gPTP, trace, pcap, the
// metrics registry and partitions — plus, when the faults came from a
// file, that file's scenario, whose own seed then reaches the
// injector. The record is nil when c has no reconfiguration, which
// needs a serial build.
func (c *Case) Build(opts testbed.Options) (*testbed.Net, *TxnRecord, error) {
	if c.DurMs < 1 {
		return nil, nil, fmt.Errorf("chaos: duration %d ms: need at least 1 ms", c.DurMs)
	}
	wl, err := workload.Build(c.Params)
	if err != nil {
		return nil, nil, err
	}
	opts.Design, opts.Topo, opts.Flows = wl.Design, wl.Topo, wl.Specs
	opts.Seed, opts.EnableWatchdog = c.Seed, c.Watchdog
	if opts.Faults == nil && len(c.Faults) > 0 {
		opts.Faults = &faults.Scenario{Faults: c.Faults}
		if err := opts.Faults.Validate(); err != nil {
			return nil, nil, err
		}
	}
	net, err := testbed.Build(opts)
	if err != nil {
		return nil, nil, err
	}
	if c.Reconfig == nil {
		return net, nil, nil
	}
	rec, d := &TxnRecord{}, c.Reconfig
	net.Engine.At(sim.Time(d.AtUs)*sim.Microsecond, "live-reconfig", func(*sim.Engine) {
		rec.Pre = net.LiveConfig()
		if rec.Cand, rec.BeginErr = core.Overlay(rec.Pre, d); rec.BeginErr == nil {
			rec.Txn, rec.BeginErr = net.Reconfigure(rec.Cand)
		}
	})
	return net, rec, nil
}

// Execute runs one case in a fresh simulation and applies every
// invariant oracle to the outcome. The returned error means the case
// could not be constructed or run at all — an infrastructure problem,
// distinct from a Result with violations, which means the system under
// test broke an invariant.
func Execute(c Case) (*Result, error) {
	reg := metrics.New()
	net, rec, err := c.Build(testbed.Options{Metrics: reg})
	if err != nil {
		return nil, fmt.Errorf("chaos: case %d: %w", c.Index, err)
	}
	net.Run(0, c.dur())

	res := &Result{Case: c, Events: net.Engine.Executed()}
	checkOracles(res, net, reg, rec)
	var buf bytes.Buffer
	if err := reg.Snapshot().WriteJSON(&buf); err != nil {
		return nil, fmt.Errorf("chaos: case %d metrics export: %w", c.Index, err)
	}
	res.MetricsJSON = buf.Bytes()
	return res, nil
}

// parityStrip reduces a case to the feature set the partitioned build
// supports: its workload, run for its duration — no faults, mid-run
// reconfiguration or watchdog. Topology, flows (FRER included),
// background and seed are untouched, so the comparison still covers
// the full forwarding, gating, shaping and recovery dataplane.
func parityStrip(c Case) Case {
	return Case{Index: c.Index, Params: c.Params, DurMs: c.DurMs}
}

// CheckPartitionParity is the partition-parity oracle: it re-runs the
// sampled case — stripped to the partitionable feature set — once on
// the serial engine and once sharded across the given partition count,
// and compares the two runs' testbed.Net.ExportDigest: the per-flow
// rows and the metrics export, heap-depth gauge aside. A nil return
// means parity held; a non-nil Violation means the parallel simulator
// diverged from the serial schedule, the determinism contract tsnsim
// -partitions promises.
func CheckPartitionParity(c Case, partitions int) *Violation {
	s := parityStrip(c)
	run := func(parts int) (string, error) {
		net, _, err := s.Build(testbed.Options{Metrics: metrics.New(), Partitions: parts})
		if err != nil {
			return "", err
		}
		net.Run(0, s.dur())
		return net.ExportDigest(), nil
	}
	serial, err := run(0)
	if err != nil {
		return &Violation{Oracle: OracleParity, Detail: fmt.Sprintf("serial re-run errored: %v", err)}
	}
	par, err := run(partitions)
	if err != nil {
		return &Violation{Oracle: OracleParity, Detail: fmt.Sprintf("partitions=%d run errored: %v", partitions, err)}
	}
	if serial != par {
		return &Violation{Oracle: OracleParity, Detail: fmt.Sprintf(
			"partitions=%d exports diverged from serial (digest %.12s vs %.12s)", partitions, par, serial)}
	}
	return nil
}
