package frer

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
)

// instrumented returns a table counting into a fresh registry.
func instrumented(capacity, history int) (*Table, *metrics.Registry) {
	reg := metrics.New()
	tbl := NewTable(capacity, history)
	tbl.Instrument(
		reg.Counters(MetricPassed, "").With(),
		reg.Counters(MetricEliminated, "").With(),
		reg.Counters(MetricRogue, "").With(),
	)
	return tbl, reg
}

// decisions reads the (passed, eliminated, rogue) counters of reg.
func decisions(reg *metrics.Registry) (passed, eliminated, rogue uint64) {
	return reg.CounterValue(MetricPassed), reg.CounterValue(MetricEliminated), reg.CounterValue(MetricRogue)
}

func TestRecoveryPassesFirstEliminatesSecond(t *testing.T) {
	tbl, reg := instrumented(4, 8)
	if err := tbl.Register(1); err != nil {
		t.Fatal(err)
	}
	// Two member streams delivering the same sequence numbers.
	for seq := uint32(1); seq <= 10; seq++ {
		if d := tbl.Accept(1, seq); d != Pass {
			t.Fatalf("first copy of seq %d: %v", seq, d)
		}
		if d := tbl.Accept(1, seq); d != Duplicate {
			t.Fatalf("second copy of seq %d: %v", seq, d)
		}
	}
	passed, elim, rogue := decisions(reg)
	if passed != 10 || elim != 10 || rogue != 0 {
		t.Fatalf("stats = %d/%d/%d, want 10/10/0", passed, elim, rogue)
	}
}

func TestRecoveryInterleavedMemberStreams(t *testing.T) {
	// Path-length skew: member B lags member A by 3 sequence numbers.
	tbl := NewTable(1, 8)
	_ = tbl.Register(9)
	lagged := []uint32{4, 1, 5, 2, 6, 3, 7, 4, 8, 5}
	want := []Decision{Pass, Pass, Pass, Pass, Pass, Pass, Pass, Duplicate, Pass, Duplicate}
	for i, seq := range lagged {
		if d := tbl.Accept(9, seq); d != want[i] {
			t.Fatalf("step %d seq %d: got %v, want %v", i, seq, d, want[i])
		}
	}
}

func TestRecoveryRogueOutsideWindow(t *testing.T) {
	tbl, reg := instrumented(1, 4)
	_ = tbl.Register(5)
	tbl.Accept(5, 100)
	if d := tbl.Accept(5, 96); d != Rogue { // 100-96 = 4 ≥ history
		t.Fatalf("stale seq: %v, want Rogue", d)
	}
	if d := tbl.Accept(5, 97); d != Pass { // just inside the window
		t.Fatalf("in-window seq: %v, want Pass", d)
	}
	if _, _, rogue := decisions(reg); rogue != 1 {
		t.Fatalf("rogue count = %d, want 1", rogue)
	}
}

func TestRecoveryLargeJumpClearsWindow(t *testing.T) {
	tbl := NewTable(1, 8)
	_ = tbl.Register(1)
	tbl.Accept(1, 1)
	tbl.Accept(1, 1000) // jump far past the window
	if d := tbl.Accept(1, 1000); d != Duplicate {
		t.Fatal("post-jump duplicate not eliminated")
	}
	if d := tbl.Accept(1, 999); d != Pass {
		t.Fatal("post-jump in-window arrival rejected")
	}
}

func TestUnregisteredStreamPassesThrough(t *testing.T) {
	tbl, reg := instrumented(1, 8)
	for i := 0; i < 3; i++ {
		if d := tbl.Accept(77, 1); d != Pass {
			t.Fatal("unregistered stream did not pass through")
		}
	}
	if passed, _, _ := decisions(reg); passed != 0 {
		t.Fatal("unregistered stream counted as recovered")
	}
}

func TestTableCapacity(t *testing.T) {
	tbl := NewTable(2, 8)
	if err := tbl.Register(1); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Register(1); err != nil {
		t.Fatal("re-register errored")
	}
	if err := tbl.Register(2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Register(3); err == nil {
		t.Fatal("register beyond frer_size succeeded")
	}
	if tbl.Len() != 2 || tbl.Capacity() != 2 {
		t.Fatalf("Len/Capacity = %d/%d", tbl.Len(), tbl.Capacity())
	}
	if tbl.streams[3] != nil {
		t.Fatal("failed registration left an entry")
	}
}

func TestMaxHistoryWindow(t *testing.T) {
	tbl := NewTable(1, MaxHistory)
	_ = tbl.Register(1)
	tbl.Accept(1, 100)
	if d := tbl.Accept(1, 37); d != Pass { // 100-37 = 63 < 64
		t.Fatalf("edge-of-window seq: %v, want Pass", d)
	}
	if d := tbl.Accept(1, 36); d != Rogue {
		t.Fatalf("just-outside seq: %v, want Rogue", d)
	}
}

func TestNewTableValidation(t *testing.T) {
	for _, fn := range []func(){
		func() { NewTable(-1, 8) },
		func() { NewTable(1, 0) },
		func() { NewTable(1, MaxHistory+1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid NewTable did not panic")
				}
			}()
			fn()
		}()
	}
}

func TestInstrument(t *testing.T) {
	tbl, reg := instrumented(1, 8)
	_ = tbl.Register(1)
	tbl.Accept(1, 1)
	tbl.Accept(1, 1)
	if reg.CounterValue(MetricPassed) != 1 || reg.CounterValue(MetricEliminated) != 1 {
		t.Fatal("telemetry counters not updated")
	}
}

func TestDecisionString(t *testing.T) {
	if Pass.String() != "pass" || Duplicate.String() != "duplicate" || Rogue.String() != "rogue" {
		t.Fatal("Decision strings wrong")
	}
	if Decision(9).String() == "" {
		t.Fatal("unknown decision unprintable")
	}
}
