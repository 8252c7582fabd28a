package reconfig

import (
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// Edge cases of the retry rule: slots large enough that a cycle past
// the last boundary would overflow sim.Time arithmetic.

// slotHarness is a harness whose live slot is slot, with a one-op
// candidate (meter table 16 → 32) begun against it.
func slotHarness(t *testing.T, slot sim.Time) (*harness, *Txn) {
	t.Helper()
	cfg := baseCfg()
	cfg.SlotSize = slot
	h := newHarnessFor(t, cfg)
	cand := h.cfg
	cand.MeterSize = 32
	txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	return h, txn
}

// TestBackoffOverflowClamped: a slot whose cycle lies past maxCommitAt
// would schedule the retry beyond the clamp, and naive arithmetic
// further on would wrap negative and schedule it in the past. The
// clamp pins the retry at maxCommitAt instead, keeping time monotonic
// and leaving headroom for callers that compute CommitTime()+offset.
func TestBackoffOverflowClamped(t *testing.T) {
	h, txn := slotHarness(t, maxCommitAt/2+1) // one cycle is maxCommitAt+1
	h.ctrl.Arm(0, 1, false)
	txn.Commit()
	if txn.State() != StatePrepared {
		t.Fatalf("state = %v, want prepared with a retry pending", txn.State())
	}
	if got := txn.CommitTime(); got != maxCommitAt {
		t.Fatalf("retry scheduled at %d, want clamp %d", got, maxCommitAt)
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

// TestHugeBackoffRepeatedRetriesStayMonotonic exhausts the retries
// under a slot whose doubling alone overflows sim.Time: every
// rescheduled attempt must land at the clamp, never earlier than the
// previous one.
func TestHugeBackoffRepeatedRetriesStayMonotonic(t *testing.T) {
	h, txn := slotHarness(t, maxCommitAt)
	if at := txn.CommitAtBoundary(); at != maxCommitAt {
		t.Fatalf("first attempt at %d, want clamp %d", at, maxCommitAt)
	}
	h.ctrl.Arm(0, Retries+1, false) // every attempt inside the budget fails
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
	if got := txn.Attempts(); got != Retries+1 {
		t.Fatalf("attempts = %d, want %d", got, Retries+1)
	}
	if txn.Err() == nil || !strings.Contains(txn.Err().Error(), "injected failure") {
		t.Fatalf("err = %v", txn.Err())
	}
}
