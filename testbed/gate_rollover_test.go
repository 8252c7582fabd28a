package testbed

// tsn_gate_rollovers_total is owned by the (port, direction), not by
// the list object: whatever replaces a port's lists mid-run — a
// gate-close fault, a slot rebase that is rolled back — the series ends
// where the undisturbed run's ends.

import (
	"fmt"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

// rolloverSeries returns every tsn_gate_rollovers_total sample of reg,
// keyed by its label set.
func rolloverSeries(reg *metrics.Registry) map[string]uint64 {
	out := map[string]uint64{}
	for _, fam := range reg.Snapshot().Families {
		if fam.Name != tsnswitch.MetricRollovers {
			continue
		}
		for _, s := range fam.Samples {
			out[fmt.Sprint(s.Labels)] = uint64(s.Value)
		}
	}
	return out
}

// runLiveRing runs the 60-flow ring for 100 ms with sc's faults and,
// when slot > 0, a slot-size reconfiguration begun at 40 ms.
func runLiveRing(t *testing.T, faultJSON string, slot sim.Time) (*metrics.Registry, *reconfig.Txn) {
	t.Helper()
	opts := Options{Metrics: metrics.New()}
	if faultJSON != "" {
		sc, err := faults.Parse(strings.NewReader(faultJSON))
		if err != nil {
			t.Fatal(err)
		}
		opts.Faults = sc
	}
	net, _, _ := liveRing(t, 60, true, opts)
	var txn *reconfig.Txn
	if slot > 0 {
		net.Engine.At(40*sim.Millisecond, "reslot", func(*sim.Engine) {
			cfg := net.LiveConfig()
			cfg.SlotSize = slot
			var err error
			if txn, err = net.Reconfigure(cfg); err != nil {
				t.Errorf("reconfigure: %v", err)
			}
		})
	}
	net.Run(0, 100*sim.Millisecond)
	return opts.Metrics, txn
}

// TestGateCloseRolloversMatchCleanRun: a 9 ms gate-close on a trunk
// port installs one list object as both directions and later restores
// the originals. Both of the port's series must end exactly where the
// fault-free run's do (the list-owned cursor counted the replacement
// from slot 0 into "out" and left "in" without a counter).
func TestGateCloseRolloversMatchCleanRun(t *testing.T) {
	clean, _ := runLiveRing(t, "", 0)
	faulted, _ := runLiveRing(t,
		`{"faults": [{"at_us": 30000, "kind": "gate-close", "switch": 0, "port": 0, "duration_us": 9000}]}`, 0)
	sw, port := metrics.L("switch", "0"), metrics.L("port", "0")
	for _, dir := range []string{"in", "out"} {
		want := clean.CounterValue(tsnswitch.MetricRollovers, sw, port, metrics.L("dir", dir))
		got := faulted.CounterValue(tsnswitch.MetricRollovers, sw, port, metrics.L("dir", dir))
		if want < 1000 {
			t.Fatalf("dir=%s: clean run counted only %d rollovers — port 0 of switch 0 carries no traffic?", dir, want)
		}
		if got != want {
			t.Errorf("dir=%s: %d rollovers with the gate-close window, %d without", dir, got, want)
		}
	}
	if got := faulted.CounterValue(faults.MetricInjected, metrics.L("kind", string(faults.KindGateClose))); got != 1 {
		t.Fatalf("gate-close injected %d times, want 1", got)
	}
}

// TestSlotRollbackRolloversMatchCleanRun: a slot-size change whose
// commit fails after three switches were rebased, on every attempt,
// restores the saved lists each time; every rollover series of the
// network must end where the run without the reconfiguration has it.
func TestSlotRollbackRolloversMatchCleanRun(t *testing.T) {
	clean, _ := runLiveRing(t, "", 0)
	rolled, txn := runLiveRing(t,
		`{"faults": [{"at_us": 30000, "kind": "reconfig-fail", "op": 3}]}`, 130*sim.Microsecond)
	if txn == nil || txn.State() != reconfig.StateRolledBack {
		t.Fatalf("transaction did not roll back: %+v", txn)
	}
	if got, want := rolled.CounterValue(reconfig.MetricOps, metrics.L("result", "reverted")), uint64(3*(reconfig.Retries+1)); got != want {
		t.Fatalf("%d operations reverted, want the 3 applied rebases on each of %d attempts", got, reconfig.Retries+1)
	}
	want, got := rolloverSeries(clean), rolloverSeries(rolled)
	if len(want) == 0 || len(got) != len(want) {
		t.Fatalf("%d rollover series with the rollback, %d without", len(got), len(want))
	}
	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s: %d rollovers with the rolled-back slot change, %d without", k, got[k], w)
		}
	}
}
