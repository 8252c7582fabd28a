package core_test

// Derivation round-trip through the live-reconfiguration engine: after
// a committed transaction the configuration observable from the switch
// equals the candidate; after a rollback it equals the pre-transaction
// design, with DiffConfigs empty in both directions.

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/frer"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

func liveBase() core.Config {
	return core.Config{
		UnicastSize: 64, MulticastSize: 8,
		ClassSize: 64, MeterSize: 16,
		GateSize: 2, QueueNum: 8, PortNum: 2,
		CBSMapSize: 3, CBSSize: 3,
		QueueDepth: 8, BufferNum: 96,
		FRERSize: 4, FRERHistory: 16,
		SlotSize: 65 * sim.Microsecond, LinkRate: ethernet.Gbps,
	}
}

func liveSwitch(e *sim.Engine, cfg core.Config) *tsnswitch.Switch {
	c := cfg.Switch()
	c.Ports = cfg.PortNum
	return tsnswitch.New(e, c)
}

// observedConfig re-derives the Derivation-level Config from live
// switch and FRER-table state — what a management plane would read
// back from the hardware.
func observedConfig(sw *tsnswitch.Switch, tbl *frer.Table, base core.Config) core.Config {
	cfg := sw.Config()
	out := base
	out.UnicastSize = cfg.UnicastSize
	out.MulticastSize = cfg.MulticastSize
	out.ClassSize = cfg.ClassSize
	out.MeterSize = cfg.MeterSize
	out.GateSize = cfg.GateSize
	out.QueueNum = cfg.QueuesPerPort
	out.CBSMapSize = cfg.CBSMapSize
	out.CBSSize = cfg.CBSSize
	out.QueueDepth = cfg.QueueDepth
	out.BufferNum = cfg.BuffersPerPort
	out.SlotSize = cfg.SlotSize
	out.LinkRate = cfg.LinkRate
	out.FRERSize = tbl.Capacity()
	out.FRERHistory = tbl.History()
	return out
}

func TestDerivationRoundTripAfterApply(t *testing.T) {
	old := liveBase()
	engine := sim.NewEngine()
	sw := liveSwitch(engine, old)
	tbl := frer.NewTable(old.FRERSize, old.FRERHistory)
	ctrl := reconfig.NewController(engine, nil)
	b := reconfig.Bindings{Switches: []*tsnswitch.Switch{sw}, FRER: []*frer.Table{tbl}}

	cand := old
	cand.UnicastSize, cand.ClassSize, cand.MeterSize = 128, 128, 32
	cand.QueueDepth, cand.BufferNum = 16, 128
	cand.FRERSize, cand.FRERHistory = 8, 32
	cand.SlotSize = 130 * sim.Microsecond

	txn, err := ctrl.Begin(old, cand, b)
	if err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	if txn.State() != reconfig.StateCommitted {
		t.Fatalf("state = %v (%v)", txn.State(), txn.Err())
	}
	if d := core.DiffConfigs(cand, observedConfig(sw, tbl, cand)); len(d) != 0 {
		t.Fatalf("observed state diverges from committed candidate:\n%v", d)
	}

	// Apply the inverse transaction: the observable state must round-
	// trip exactly back to the original derivation.
	back, err := ctrl.Begin(cand, old, b)
	if err != nil {
		t.Fatal(err)
	}
	back.Commit()
	if back.State() != reconfig.StateCommitted {
		t.Fatalf("state = %v (%v)", back.State(), back.Err())
	}
	if d := core.DiffConfigs(old, observedConfig(sw, tbl, old)); len(d) != 0 {
		t.Fatalf("round trip diverges from original design:\n%v", d)
	}
}

func TestDerivationRoundTripAfterRollback(t *testing.T) {
	old := liveBase()
	engine := sim.NewEngine()
	sw := liveSwitch(engine, old)
	tbl := frer.NewTable(old.FRERSize, old.FRERHistory)
	ctrl := reconfig.NewController(engine, nil)
	b := reconfig.Bindings{Switches: []*tsnswitch.Switch{sw}, FRER: []*frer.Table{tbl}}

	cand := old
	cand.UnicastSize, cand.MeterSize = 128, 32
	cand.QueueDepth = 16
	cand.FRERSize = 8
	cand.SlotSize = 130 * sim.Microsecond

	txn, err := ctrl.Begin(old, cand, b)
	if err != nil {
		t.Fatal(err)
	}
	// Fail mid-apply, after several operations have already run, on
	// the first attempt and on every retry.
	ctrl.Arm(len(txn.Ops())-1, reconfig.Retries+1, false)
	txn.Commit()
	for txn.State() == reconfig.StatePrepared {
		engine.RunUntil(txn.CommitTime())
	}
	if txn.State() != reconfig.StateRolledBack || txn.Err() == nil {
		t.Fatalf("state = %v err = %v", txn.State(), txn.Err())
	}
	// The post-rollback observable configuration must be byte-for-byte
	// the pre-transaction design: an empty diff.
	if d := core.DiffConfigs(old, observedConfig(sw, tbl, old)); len(d) != 0 {
		t.Fatalf("rollback left residue:\n%v", d)
	}
}
