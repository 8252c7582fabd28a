package reconfig

import (
	"math"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// Edge cases of the bounded retry policy: zero budgets, negative
// budgets, and backoffs large enough to overflow sim.Time arithmetic.

func TestZeroMaxRetriesRollsBackImmediately(t *testing.T) {
	h := newHarness(t)
	h.ctrl.SetRetryPolicy(0, 10*sim.Microsecond)
	cand := h.cfg
	cand.MeterSize = 32
	txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	h.ctrl.Arm(0, 1, false)
	txn.Commit()
	// No retry event may be pending: the rollback resolves within the
	// commit call itself, before any engine time passes.
	if txn.State() != StateRolledBack {
		t.Fatalf("state = %v, want rolled-back with zero retry budget", txn.State())
	}
	if got := txn.Attempts(); got != 1 {
		t.Fatalf("attempts = %d, want 1", got)
	}
	if got := h.reg.CounterValue(MetricRetries); got != 0 {
		t.Fatalf("retries counter = %d, want 0", got)
	}
	// The meter table is back at its old size.
	if err := h.sw.Filter().Meters.Configure(16, ethernet.Mbps, 1500); err == nil {
		t.Fatal("meter table grew despite immediate rollback")
	}
}

func TestNegativeMaxRetriesClampsToZero(t *testing.T) {
	h := newHarness(t)
	h.ctrl.SetRetryPolicy(-7, 10*sim.Microsecond)
	cand := h.cfg
	cand.MeterSize = 32
	txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	h.ctrl.Arm(0, 1, false)
	txn.Commit()
	if txn.State() != StateRolledBack || txn.Attempts() != 1 {
		t.Fatalf("state=%v attempts=%d, want immediate rollback", txn.State(), txn.Attempts())
	}
}

// TestBackoffOverflowClamped arms a backoff near the sim.Time maximum:
// naive now+backoff arithmetic would wrap negative and schedule the
// retry in the past. The clamp pins the retry at maxCommitAt instead,
// keeping time monotonic and leaving headroom for callers that compute
// CommitTime()+offset.
func TestBackoffOverflowClamped(t *testing.T) {
	h := newHarness(t)
	h.ctrl.SetRetryPolicy(2, sim.Time(math.MaxInt64-3))
	cand := h.cfg
	cand.MeterSize = 32
	txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	h.ctrl.Arm(0, 1, false)
	txn.Commit()
	if txn.State() != StatePrepared {
		t.Fatalf("state = %v, want prepared with a retry pending", txn.State())
	}
	if got := txn.CommitTime(); got != maxCommitAt {
		t.Fatalf("retry scheduled at %d, want clamp %d", got, maxCommitAt)
	}
	if txn.CommitTime() < h.engine.Now() {
		t.Fatal("retry scheduled in the past (overflow)")
	}
	// The clamped instant is still schedulable: running there resolves
	// the transaction, and CommitTime()+1 does not wrap.
	h.engine.RunUntil(txn.CommitTime() + 1)
	if txn.State() != StateCommitted {
		t.Fatalf("state = %v after clamped retry", txn.State())
	}
	if txn.CommitTime()+1 < 0 {
		t.Fatal("CommitTime()+1 overflowed")
	}
}

// TestHugeBackoffRepeatedRetriesStayMonotonic exhausts several retries
// under an overflowing backoff: every rescheduled attempt must land at
// the clamp, never earlier than the previous one.
func TestHugeBackoffRepeatedRetriesStayMonotonic(t *testing.T) {
	h := newHarness(t)
	h.ctrl.SetRetryPolicy(3, sim.Time(math.MaxInt64/2+1))
	cand := h.cfg
	cand.MeterSize = 32
	txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	h.ctrl.Arm(0, 4, false) // every attempt inside the budget fails
	txn.Commit()
	prev := sim.Time(0)
	for txn.State() == StatePrepared {
		at := txn.CommitTime()
		if at < prev {
			t.Fatalf("retry at %d before previous %d: time travel", at, prev)
		}
		if at < h.engine.Now() {
			t.Fatalf("retry at %d already in the past (now %d)", at, h.engine.Now())
		}
		prev = at
		h.engine.RunUntil(at + 1)
	}
	if txn.State() != StateRolledBack {
		t.Fatalf("state = %v, want rolled-back after exhausted budget", txn.State())
	}
	if got := txn.Attempts(); got != 4 {
		t.Fatalf("attempts = %d, want 4", got)
	}
	if txn.Err() == nil || !strings.Contains(txn.Err().Error(), "injected failure") {
		t.Fatalf("err = %v", txn.Err())
	}
}
