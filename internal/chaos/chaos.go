// Package chaos is the randomized campaign engine over the testbed: it
// generates seeded scenarios (topology, flow mix, fault script,
// mid-run reconfiguration), fans them out across a worker pool under a
// wall-clock budget, checks a suite of invariant oracles after every
// run, and delta-debugs any failing scenario down to a minimal
// replayable repro.
//
// Determinism is the spine of the design. A campaign is a pure
// function of its profile: case i derives its RNG stream from
// (profile.Seed, i) alone, every case runs in its own sim.Engine with
// its own metrics registry, and results are collected in case order —
// so the same profile always yields the same scenarios and the same
// verdicts regardless of worker count or which runs a budget cut off
// mid-sweep (a budget only truncates the tail, never reorders it).
//
// A Case is also tsnsim's scenario: tsnsim's flags bind into one, its
// -reconfig file is a Delta, and Case.Build is the one path from a
// scenario to a built network for tsnsim, Execute and the parity
// re-run alike. That is what makes a shrunk failure trustworthy: its
// recorded tsnsim argv replays the same workload through the same
// builder, and a test holds the replay's metrics byte-equal to the
// campaign's.
package chaos

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// Case is one fully-specified chaos scenario: a workload plus what a
// run adds to it. Every field is expressible as a tsnsim flag or
// sidecar file, which is what makes the minimal-repro artifact
// replayable outside the campaign.
type Case struct {
	// Index is the case's position in the campaign; with the campaign
	// seed it fully determines the scenario.
	Index int `json:"index"`
	// Params is the workload; its Seed is the per-case workload seed
	// (also the fault RNG seed) and its TSDeadline tsnsim -ts-deadline
	// (tight values force misses).
	workload.Params
	// FRERCovered marks a case whose every TS flow is redundant and
	// whose fault script only breaks one ring cable (a cable pull downs
	// both directions, and the disjoint member-stream arcs share no
	// cable) — the single-point-of-failure class FRER provably masks,
	// so the zero-loss oracle applies.
	FRERCovered bool `json:"frer_covered"`
	// DurMs is the measurement window in milliseconds (no warmup: chaos
	// cases run with perfect clocks).
	DurMs int `json:"dur_ms"`
	// Watchdog enables the invariant watchdog and degradation ladder.
	Watchdog bool `json:"watchdog"`

	// Faults is the fault script, in faults.Scenario form.
	Faults []faults.Fault `json:"faults,omitempty"`
	// Reconfig, when set, applies a mid-run live reconfiguration.
	Reconfig *Delta `json:"reconfig,omitempty"`
}

// Delta is a mid-run live reconfiguration and tsnsim's -reconfig file
// format: the instant to begin the transaction plus per-field
// overrides of the running configuration, read by core.Overlay: an
// absent field keeps its live value. Structural parameters (queue_num,
// port_num, link_rate) are deliberately not representable — changing
// them requires regeneration, which the engine would reject anyway.
type Delta struct {
	AtUs          int64  `json:"at_us"`
	UnicastSize   *int   `json:"unicast_size,omitempty"`
	MulticastSize *int   `json:"multicast_size,omitempty"`
	ClassSize     *int   `json:"class_size,omitempty"`
	MeterSize     *int   `json:"meter_size,omitempty"`
	GateSize      *int   `json:"gate_size,omitempty"`
	CBSMapSize    *int   `json:"cbs_map_size,omitempty"`
	CBSSize       *int   `json:"cbs_size,omitempty"`
	QueueDepth    *int   `json:"queue_depth,omitempty"`
	BufferNum     *int   `json:"buffer_num,omitempty"`
	FRERSize      *int   `json:"frer_size,omitempty"`
	FRERHistory   *int   `json:"frer_history,omitempty"`
	SlotUs        *int64 `json:"slot_us,omitempty"`
}

// LoadDelta parses a -reconfig file strictly: unknown fields and a
// negative value, begin time included, are rejected here, before
// anything is built.
func LoadDelta(path string) (*Delta, error) {
	var d Delta
	if err := loadStrict(path, "reconfig spec", &d); err != nil {
		return nil, err
	}
	if _, err := core.Overlay(core.Config{}, &d); err != nil {
		return nil, fmt.Errorf("reconfig spec %s: %w", path, err)
	}
	return &d, nil
}

// Violation is one oracle failure on one case.
type Violation struct {
	// Oracle names the invariant that failed (see oracle.go).
	Oracle string `json:"oracle"`
	// Detail is the human-readable evidence.
	Detail string `json:"detail"`
}

func (v Violation) String() string { return fmt.Sprintf("%s: %s", v.Oracle, v.Detail) }

// Result is one executed case's verdict.
type Result struct {
	Case       Case        `json:"case"`
	Violations []Violation `json:"violations,omitempty"`
	// Skipped names each oracle that did not judge the case, its Detail
	// saying why.
	Skipped []Violation `json:"skipped,omitempty"`
	// MetricsJSON is the run's full telemetry snapshot, byte-comparable
	// across replays (the determinism oracle's evidence).
	MetricsJSON []byte `json:"-"`
	// Events is how many simulation events the run executed.
	Events uint64 `json:"events"`
}

// Failed reports whether any oracle rejected the run.
func (r *Result) Failed() bool { return len(r.Violations) > 0 }

// durUs returns the case duration in microseconds.
func (c *Case) durUs() int64 { return int64(c.DurMs) * 1000 }

// dur returns the case duration as simulated time.
func (c *Case) dur() sim.Time { return sim.Time(c.DurMs) * sim.Millisecond }
