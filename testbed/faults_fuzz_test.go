package testbed

import (
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// FuzzScenarioApply: a scenario that faults.Parse accepts never panics.
// Apply either returns an error or the scenario runs for a bounded
// window on a ring with gPTP and a reconfiguration controller, where
// every kind can bind. The seeds hold one scenario per kind plus the
// out-of-range ports and the fault times that overflowed the simulated
// clock before both were rejected, and a flap of a billion cycles,
// which Apply books one cycle at a time.
func FuzzScenarioApply(f *testing.F) {
	for _, s := range []string{
		`{"faults": [{"at_us": 100, "kind": "link-down", "a": 1, "b": 2}, {"at_us": 900, "kind": "link-up", "a": 1, "b": 2}]}`,
		`{"faults": [{"at_us": 10, "kind": "link-flap", "host": 101, "period_us": 200, "count": 4}]}`,
		`{"faults": [{"at_us": 5, "kind": "link-loss", "a": 0, "b": 1, "prob": 0.5, "duration_us": 1000}]}`,
		`{"faults": [{"at_us": 5, "kind": "link-corrupt", "host": 202, "prob": 0.5, "duration_us": 500}]}`,
		`{"faults": [{"at_us": 100, "kind": "clock-step", "switch": 3, "step_ns": -5000}]}`,
		`{"faults": [{"at_us": 100, "kind": "clock-drift", "switch": 2, "drift_ppb": 150}]}`,
		`{"faults": [{"at_us": 50, "kind": "gm-kill"}, {"at_us": 60, "kind": "node-kill", "switch": 1}]}`,
		`{"faults": [{"at_us": 50, "kind": "buffer-exhaust", "switch": 1, "port": 0, "slots": 8, "duration_us": 300}]}`,
		`{"faults": [{"at_us": 50, "kind": "gate-close", "switch": 0, "port": 1, "duration_us": 200}]}`,
		`{"faults": [{"at_us": 50, "kind": "buffer-leak", "switch": 1, "port": 0, "slots": 2}]}`,
		`{"faults": [{"at_us": 5, "kind": "reconfig-fail", "op": 1}, {"at_us": 6, "kind": "reconfig-transient", "count": 3}, {"at_us": 7, "kind": "reconfig-wedge"}]}`,
		`{"faults": [{"at_us": 50, "kind": "node-kill", "switch": 9}]}`,
		// Out-of-range ports.
		`{"faults": [{"at_us": 50, "kind": "buffer-exhaust", "switch": 1, "port": 99, "slots": 8, "duration_us": 300}]}`,
		`{"faults": [{"at_us": 50, "kind": "buffer-exhaust", "switch": 1, "port": -1, "slots": 8, "duration_us": 300}]}`,
		`{"faults": [{"at_us": 50, "kind": "buffer-leak", "switch": 1, "port": 99, "slots": 2}]}`,
		`{"faults": [{"at_us": 50, "kind": "buffer-leak", "switch": 1, "port": -1, "slots": 2}]}`,
		`{"faults": [{"at_us": 50, "kind": "gate-close", "switch": 1, "port": 99, "duration_us": 200}]}`,
		`{"faults": [{"at_us": 50, "kind": "gate-close", "switch": 1, "port": -1, "duration_us": 200}]}`,
		// Fault times past the simulated clock.
		`{"faults": [{"at_us": 9223372036854776, "kind": "link-down", "a": 1, "b": 2}]}`,
		`{"faults": [{"at_us": 50, "kind": "link-loss", "a": 1, "b": 2, "prob": 0.5, "duration_us": 9223372036854775807}]}`,
		`{"faults": [{"at_us": 50, "kind": "gate-close", "switch": 1, "port": 0, "duration_us": 9223372036854775807}]}`,
		`{"faults": [
			{"at_us": 0, "kind": "link-flap", "a": 0, "b": 1, "period_us": 4611686018427387904, "count": 4},
			{"at_us": 10, "kind": "link-flap", "a": 0, "b": 1, "period_us": 4611686018427387904, "count": 4}]}`,
		`{"faults": [{"at_us": 0, "kind": "link-flap", "a": 0, "b": 1, "period_us": 1, "count": 1000000000}]}`,
	} {
		f.Add(s)
	}
	f.Fuzz(func(t *testing.T, doc string) {
		sc, err := faults.Parse(strings.NewReader(doc))
		if err != nil {
			return
		}
		w, err := workload.Build(workload.Params{Topology: "ring", Switches: 4, TSFlows: 8, Hops: 2, WireSize: 64, SlotUs: 65, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		net, err := Build(Options{Design: w.Design, Topo: w.Topo, Flows: w.Specs, EnableGPTP: true, Faults: sc})
		if err != nil {
			return
		}
		net.Run(0, 2*sim.Millisecond)
	})
}
