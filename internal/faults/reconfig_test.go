package faults

import (
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

// oneSwitch returns a live switch built from cfg.
func oneSwitch(e *sim.Engine, cfg core.Config) *tsnswitch.Switch {
	c := cfg.Switch()
	c.Ports = cfg.PortNum
	return tsnswitch.New(e, c)
}

// TestReconfigKindsArmTheController applies each reconfig-* kind through
// Injector.Apply to a one-switch controller and checks the commits that
// follow. The candidate stages three ops: unicast (0), meter (1), queue
// depth (2).
func TestReconfigKindsArmTheController(t *testing.T) {
	old := core.Config{
		UnicastSize: 64, MulticastSize: 8, ClassSize: 64, MeterSize: 16,
		GateSize: 2, QueueNum: 8, PortNum: 2, CBSMapSize: 3, CBSSize: 3,
		QueueDepth: 8, BufferNum: 96,
		SlotSize: 65 * sim.Microsecond, LinkRate: ethernet.Gbps,
	}
	cand := old
	cand.UnicastSize, cand.MeterSize, cand.QueueDepth = 128, 32, 16
	sizes := func(sw *tsnswitch.Switch) [3]int {
		c := sw.Config()
		return [3]int{c.UnicastSize, c.MeterSize, c.QueueDepth}
	}
	for _, tc := range []struct {
		name, fault string
		state       reconfig.State
		attempts    int
		errHas      string
		sizes       [3]int // the switch after the transaction resolves
	}{
		{"fail rolls back once", `{"at_us": 5, "kind": "reconfig-fail", "op": 1}`,
			reconfig.StateRolledBack, reconfig.Retries + 1, `injected failure before "sw0:set_meter_tbl"`, [3]int{64, 16, 8}},
		{"transient without count fails one attempt", `{"at_us": 5, "kind": "reconfig-transient", "op": 1}`,
			reconfig.StateCommitted, 2, "", [3]int{128, 32, 16}},
		{"transient fails count attempts", `{"at_us": 5, "kind": "reconfig-transient", "op": 0, "count": 3}`,
			reconfig.StateCommitted, 4, "", [3]int{128, 32, 16}},
		{"wedge leaves the applied prefix", `{"at_us": 5, "kind": "reconfig-wedge", "op": 2}`,
			reconfig.StateRolledBack, 1, "with rollback disabled", [3]int{128, 32, 8}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			e := sim.NewEngine()
			reg := metrics.New()
			sw := oneSwitch(e, old)
			ctrl := reconfig.NewController(e, nil)
			b := reconfig.Bindings{Switches: []*tsnswitch.Switch{sw}}
			sc, err := Parse(strings.NewReader(`{"faults": [` + tc.fault + `]}`))
			if err != nil {
				t.Fatal(err)
			}
			inj := NewInjector(e, 1, reg)
			if err := inj.Apply(sc, Bindings{Reconfig: ctrl}); err != nil {
				t.Fatal(err)
			}
			e.RunUntil(10 * sim.Microsecond)
			kind := sc.Faults[0].Kind
			if v := reg.CounterValue(MetricInjected, metrics.L("kind", kind)); v != 1 {
				t.Fatalf("injected{kind=%s} = %d, want 1", kind, v)
			}

			txn, err := ctrl.Begin(old, cand, b)
			if err != nil {
				t.Fatal(err)
			}
			txn.Commit()
			for txn.State() == reconfig.StatePrepared {
				e.RunUntil(txn.CommitTime() + 1)
			}
			if txn.State() != tc.state || txn.Attempts() != tc.attempts {
				t.Fatalf("txn %v after %d attempts (%v), want %v after %d",
					txn.State(), txn.Attempts(), txn.Err(), tc.state, tc.attempts)
			}
			if tc.errHas != "" && (txn.Err() == nil || !strings.Contains(txn.Err().Error(), tc.errHas)) {
				t.Fatalf("err = %v, want it to contain %q", txn.Err(), tc.errHas)
			}
			if got := sizes(sw); got != tc.sizes {
				t.Fatalf("switch (unicast, meter, depth) = %v, want %v", got, tc.sizes)
			}

			// The arm is spent: the next transaction commits at once.
			from, to := old, cand
			if txn.State() == reconfig.StateCommitted {
				from, to = cand, old
			}
			next, err := ctrl.Begin(from, to, b)
			if err != nil {
				t.Fatal(err)
			}
			next.Commit()
			if next.State() != reconfig.StateCommitted || next.Attempts() != 1 {
				t.Fatalf("next txn %v after %d attempts (%v)", next.State(), next.Attempts(), next.Err())
			}
		})
	}
}

// TestReconfigKindsNeedAController: without a Reconfig binding every
// reconfig-* kind is a scenario error naming the kind.
func TestReconfigKindsNeedAController(t *testing.T) {
	for _, kind := range []string{KindReconfigFail, KindReconfigTransient, KindReconfigWedge} {
		sc, err := Parse(strings.NewReader(`{"faults": [{"at_us": 0, "kind": "` + kind + `"}]}`))
		if err != nil {
			t.Fatal(err)
		}
		err = NewInjector(sim.NewEngine(), 1, nil).Apply(sc, Bindings{})
		if err == nil || !strings.Contains(err.Error(), kind+" without a reconfiguration controller") {
			t.Errorf("%s with no controller: err = %v", kind, err)
		}
	}
}
