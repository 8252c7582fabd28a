package testbed

// Retry-exhaustion integration test: when every commit attempt of a
// transaction fails — a failure armed for all reconfig.Retries+1
// attempts, as reconfig-fail arms it — the network must end exactly
// where it started.
// VerifyLive is the judge: it compares every switch's live resizable
// resources against the configuration the controller believes is in
// force, so any forgotten rollback shows up as partial state.

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

func TestRetryExhaustionRollsBackCleanLive(t *testing.T) {
	net, _, _ := liveRing(t, 60, false, Options{})
	pre := net.LiveConfig()

	var txn *reconfig.Txn
	net.Engine.At(20*sim.Millisecond, "grow-doomed", func(*sim.Engine) {
		var err error
		txn, err = net.Reconfigure(grownConfig(pre))
		if err != nil {
			t.Fatalf("reconfigure: %v", err)
		}
		// As many failures as the original attempt and its retries:
		// the transaction must exhaust its budget and roll back.
		net.Reconfig.Arm(1, reconfig.Retries+1, false)
	})
	net.Run(0, 60*sim.Millisecond)

	if txn == nil {
		t.Fatal("reconfigure event never ran")
	}
	if txn.State() != reconfig.StateRolledBack {
		t.Fatalf("state = %v, want rolled-back after exhausted budget", txn.State())
	}
	if got := txn.Attempts(); got != reconfig.Retries+1 {
		t.Fatalf("attempts = %d, want %d (original + retries)", got, reconfig.Retries+1)
	}
	// The controller still believes the pre-transaction configuration is
	// in force, and every switch actually carries it: rollback-clean.
	if got := net.LiveConfig(); got != pre {
		t.Fatalf("live config changed by a rolled-back transaction")
	}
	if err := net.VerifyLive(); err != nil {
		t.Fatalf("partial state after exhausted retries: %v", err)
	}
}
