// Package frer implements 802.1CB-style Frame Replication and
// Elimination for Reliability (FRER) as TSN-Builder's eighth
// customizable resource class. A talker replicates each stream frame
// onto link-disjoint member streams (in this repro: the two directions
// of a bidirectional ring, separated by VLAN); the listener runs the
// sequence-recovery function below to eliminate the duplicates, so a
// single link failure anywhere on either path is invisible to the
// application.
//
// The recovery state is a bounded table — frer_size streams, each with
// a history_len-bit window — sized by the set_frer_tbl customization
// API exactly like the paper's seven table classes (resource.FRERTbl
// gives its BRAM cost).
package frer

import (
	"errors"
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
)

// MaxHistory bounds the per-stream history window: one 64-bit vector
// register per entry, the widest the modeled hardware implements.
const MaxHistory = 64

// DefaultHistory is the window used when a design does not configure
// one: generous enough to absorb the path-length skew between the two
// ring directions at TS rates.
const DefaultHistory = 32

// Metric names for sequence-recovery telemetry.
const (
	MetricPassed     = "tsn_frer_passed_total"
	MetricEliminated = "tsn_frer_eliminated_total"
	MetricRogue      = "tsn_frer_rogue_total"
)

// ErrTableFull is returned when registering beyond the configured
// frer_size, as a full hardware table would reject the write.
var ErrTableFull = errors.New("frer: sequence-recovery table full")

// Decision is the outcome of the sequence-recovery function for one
// received member-stream frame.
type Decision int

// Possible decisions.
const (
	// Pass: first copy of this sequence number — deliver upward.
	Pass Decision = iota
	// Duplicate: already delivered (or same number seen) within the
	// history window — eliminate silently.
	Duplicate
	// Rogue: sequence number too far behind the window (802.1CB's
	// "rogue packet") — discard and count; likely a stale or babbling
	// member stream.
	Rogue
)

// String implements fmt.Stringer.
func (d Decision) String() string {
	switch d {
	case Pass:
		return "pass"
	case Duplicate:
		return "duplicate"
	case Rogue:
		return "rogue"
	}
	return fmt.Sprintf("Decision(%d)", int(d))
}

// recoveryState is one table entry: the vector recovery algorithm's
// per-stream state (802.1CB §7.4.3.4).
type recoveryState struct {
	started bool
	top     uint32 // highest sequence number accepted so far
	// window bit i (0-based) remembers whether sequence top-i was
	// accepted; bit 0 is top itself.
	window uint64
}

// Table is a sequence-recovery table for up to capacity streams, the
// listener-side half of FRER.
type Table struct {
	capacity int
	history  int
	streams  map[uint32]*recoveryState

	// Decision counters; zero values are no-ops.
	mPassed metrics.Counter
	mElim   metrics.Counter
	mRogue  metrics.Counter
}

// NewTable returns a table for capacity streams with a history-window
// of history sequence numbers (1..MaxHistory).
func NewTable(capacity, history int) *Table {
	if capacity < 0 {
		panic("frer: negative table capacity")
	}
	if history < 1 || history > MaxHistory {
		panic(fmt.Sprintf("frer: history %d out of [1,%d]", history, MaxHistory))
	}
	return &Table{capacity: capacity, history: history, streams: make(map[uint32]*recoveryState)}
}

// Instrument binds recovery telemetry; zero-value counters are no-ops.
func (t *Table) Instrument(passed, eliminated, rogue metrics.Counter) {
	t.mPassed, t.mElim, t.mRogue = passed, eliminated, rogue
}

// Capacity returns the configured frer_size.
func (t *Table) Capacity() int { return t.capacity }

// History returns the configured window length.
func (t *Table) History() int { return t.history }

// Len returns how many streams are registered.
func (t *Table) Len() int { return len(t.streams) }

// Resize changes the stream capacity and history window in place,
// preserving registered streams and their recovery state — the
// live-reconfiguration primitive behind set_frer_tbl. It fails if the
// new capacity cannot hold the registered streams or the history is
// outside [1,MaxHistory]. Shrinking the history narrows the duplicate-
// detection window for subsequent frames only.
func (t *Table) Resize(capacity, history int) error {
	if capacity < 0 {
		return fmt.Errorf("frer: negative table capacity %d", capacity)
	}
	if history < 1 || history > MaxHistory {
		return fmt.Errorf("frer: history %d out of [1,%d]", history, MaxHistory)
	}
	if len(t.streams) > capacity {
		return fmt.Errorf("frer: cannot shrink table to %d: %d streams registered",
			capacity, len(t.streams))
	}
	t.capacity = capacity
	t.history = history
	return nil
}

// Register allocates a recovery entry for stream id. Registering an
// already-present stream is a no-op; registering beyond capacity fails.
func (t *Table) Register(id uint32) error {
	if _, ok := t.streams[id]; ok {
		return nil
	}
	if len(t.streams) >= t.capacity {
		return fmt.Errorf("%w: capacity %d", ErrTableFull, t.capacity)
	}
	t.streams[id] = &recoveryState{}
	return nil
}

// Accept runs the vector recovery algorithm for one received frame of
// stream id with the given sequence number. Frames of unregistered
// streams pass through untouched (no recovery function attached, per
// 802.1CB stream identification).
func (t *Table) Accept(id uint32, seq uint32) Decision {
	st, ok := t.streams[id]
	if !ok {
		return Pass
	}
	d := st.accept(seq, t.history)
	switch d {
	case Pass:
		t.mPassed.Inc()
	case Duplicate:
		t.mElim.Inc()
	case Rogue:
		t.mRogue.Inc()
	}
	return d
}

func (st *recoveryState) accept(seq uint32, history int) Decision {
	if !st.started {
		st.started = true
		st.top = seq
		st.window = 1
		return Pass
	}
	mask := uint64(1)<<history - 1
	if history == MaxHistory {
		mask = ^uint64(0)
	}
	delta := int64(seq) - int64(st.top)
	switch {
	case delta > 0:
		// Ahead of everything seen: advance the window. A jump past
		// the window length simply shifts the old history out.
		if delta >= int64(MaxHistory) {
			st.window = 0
		} else {
			st.window <<= uint(delta)
		}
		st.window = (st.window | 1) & mask
		st.top = seq
		return Pass
	case delta == 0:
		return Duplicate
	case delta > -int64(history):
		// Inside the window: out-of-order arrival or duplicate.
		bit := uint64(1) << uint(-delta)
		if st.window&bit != 0 {
			return Duplicate
		}
		st.window |= bit
		return Pass
	default:
		return Rogue
	}
}
