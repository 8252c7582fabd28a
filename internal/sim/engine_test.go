package sim

import (
	"testing"
	"testing/quick"
	"unsafe"

	"github.com/tsnbuilder/tsnbuilder/internal/israce"
)

func TestEngineOrdering(t *testing.T) {
	e := NewEngine()
	var got []int
	e.At(30, "c", func(*Engine) { got = append(got, 3) })
	e.At(10, "a", func(*Engine) { got = append(got, 1) })
	e.At(20, "b", func(*Engine) { got = append(got, 2) })
	e.Run()
	want := []int{1, 2, 3}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
	if e.Now() != 30 {
		t.Errorf("Now = %v, want 30", e.Now())
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 16; i++ {
		i := i
		e.At(5, "tie", func(*Engine) { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("tie-break order = %v, want scheduling order", got)
		}
	}
}

// TestEngineAtSeqKeepsTheTakenSlot: an event scheduled late under a
// number taken early runs where At would have put it when the number
// was taken — ahead of everything scheduled since for that instant, and
// still behind an earlier instant or a prioritized same-instant event.
func TestEngineAtSeqKeepsTheTakenSlot(t *testing.T) {
	e := NewEngine()
	var got []int
	note := func(i int) Handler { return func(*Engine) { got = append(got, i) } }
	e.At(5, "first", note(1))
	taken := e.TakeSeq()
	e.At(5, "after-take", note(3))
	e.AtPrio(5, 7, "prio", note(4))
	e.At(4, "earlier", note(0))
	if e.Pending() != 4 {
		t.Fatalf("TakeSeq scheduled something: %d pending, want 4", e.Pending())
	}
	e.AtSeq(5, taken, "taken", note(2))
	e.Run()
	for i := range got {
		if got[i] != i || len(got) != 5 {
			t.Fatalf("order = %v, want [0 1 2 3 4]", got)
		}
	}
	defer func() {
		if recover() == nil {
			t.Error("AtSeq in the past did not panic")
		}
	}()
	e.AtSeq(4, e.TakeSeq(), "past", note(9))
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine()
	var fires int
	var recur Handler
	recur = func(en *Engine) {
		fires++
		if fires < 10 {
			en.After(7, "recur", recur)
		}
	}
	e.After(7, "recur", recur)
	e.Run()
	if fires != 10 {
		t.Fatalf("fires = %d, want 10", fires)
	}
	if e.Now() != 70 {
		t.Fatalf("Now = %v, want 70", e.Now())
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(100, "late", func(en *Engine) {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		en.At(50, "past", func(*Engine) {})
	})
	e.Run()
}

func TestEngineNegativeDelayPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative delay did not panic")
		}
	}()
	NewEngine().After(-1, "neg", func(*Engine) {})
}

func TestEngineCancel(t *testing.T) {
	e := NewEngine()
	fired := false
	ref := e.At(10, "x", func(*Engine) { fired = true })
	if !e.Cancel(ref) {
		t.Fatal("Cancel returned false for pending event")
	}
	if e.Cancel(ref) {
		t.Fatal("double Cancel returned true")
	}
	e.Run()
	if fired {
		t.Fatal("canceled event fired")
	}
}

func TestEngineCancelAfterFire(t *testing.T) {
	e := NewEngine()
	ref := e.At(10, "x", func(*Engine) {})
	e.Run()
	if e.Cancel(ref) {
		t.Fatal("Cancel after fire returned true")
	}
	if ref.Valid() {
		t.Fatal("fired event still Valid")
	}
}

func TestEngineRunUntil(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 30, 40} {
		at := at
		e.At(at, "t", func(*Engine) { fired = append(fired, at) })
	}
	e.RunUntil(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want 2 events", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25", e.Now())
	}
	e.RunUntil(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all 4 events", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestEngineRunFor(t *testing.T) {
	e := NewEngine()
	count := 0
	var tick Handler
	tick = func(en *Engine) {
		count++
		en.After(10, "tick", tick)
	}
	e.After(10, "tick", tick)
	e.RunFor(100)
	if count != 10 {
		t.Fatalf("count = %d, want 10", count)
	}
	e.RunFor(100)
	if count != 20 {
		t.Fatalf("count = %d, want 20 after second RunFor", count)
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine()
	count := 0
	for i := 1; i <= 10; i++ {
		e.At(Time(i), "n", func(en *Engine) {
			count++
			if count == 3 {
				en.Stop()
			}
		})
	}
	e.Run()
	if count != 3 {
		t.Fatalf("count = %d, want 3 after Stop", count)
	}
	if e.Pending() != 7 {
		t.Fatalf("Pending = %d, want 7", e.Pending())
	}
}

func TestEngineAtPrioOrdersWithinInstant(t *testing.T) {
	e := NewEngine()
	var got []int
	// Schedule out of priority order at one instant; plain At events
	// (prio 0) must run first, then prioritized events by prio.
	e.AtPrio(10, 7, "p7", func(*Engine) { got = append(got, 7) })
	e.AtPrio(10, 3, "p3", func(*Engine) { got = append(got, 3) })
	e.At(10, "plain", func(*Engine) { got = append(got, 0) })
	e.AtPrio(10, 5, "p5", func(*Engine) { got = append(got, 5) })
	e.Run()
	want := []int{0, 3, 5, 7}
	for i := range want {
		if i >= len(got) || got[i] != want[i] {
			t.Fatalf("order = %v, want %v", got, want)
		}
	}
}

func TestEngineAtPrioFIFOWithinPrio(t *testing.T) {
	e := NewEngine()
	var got []int
	for i := 0; i < 8; i++ {
		i := i
		e.AtPrio(5, 1, "tie", func(*Engine) { got = append(got, i) })
	}
	e.Run()
	for i := range got {
		if got[i] != i {
			t.Fatalf("same-prio tie-break order = %v, want scheduling order", got)
		}
	}
}

func TestEnginePrioDoesNotOutrankTime(t *testing.T) {
	e := NewEngine()
	var got []int
	e.AtPrio(10, 1, "early-highprio", func(*Engine) { got = append(got, 1) })
	e.At(20, "late-plain", func(*Engine) { got = append(got, 2) })
	e.Run()
	if len(got) != 2 || got[0] != 1 || got[1] != 2 {
		t.Fatalf("order = %v, want [1 2]", got)
	}
}

func TestEngineRunBefore(t *testing.T) {
	e := NewEngine()
	var fired []Time
	for _, at := range []Time{10, 20, 25, 30} {
		at := at
		e.At(at, "t", func(*Engine) { fired = append(fired, at) })
	}
	// Strictly-before semantics: the event at exactly 25 stays queued.
	e.RunBefore(25)
	if len(fired) != 2 {
		t.Fatalf("fired %v, want the 2 events before 25", fired)
	}
	if e.Now() != 25 {
		t.Fatalf("Now = %v, want 25", e.Now())
	}
	// The next window picks the boundary event up.
	e.RunBefore(26)
	if len(fired) != 3 || fired[2] != 25 {
		t.Fatalf("fired %v, want the boundary event at 25 in the next window", fired)
	}
	e.RunBefore(100)
	if len(fired) != 4 {
		t.Fatalf("fired %v, want all 4 events", fired)
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v, want 100", e.Now())
	}
}

func TestEngineRunUntilStopKeepsClock(t *testing.T) {
	e := NewEngine()
	e.At(10, "stopper", func(en *Engine) { en.Stop() })
	e.At(20, "later", func(*Engine) {})
	e.RunUntil(100)
	if e.Now() != 10 {
		t.Fatalf("Now = %v after early Stop, want 10 (must not jump to the deadline)", e.Now())
	}
	if !e.stopped {
		t.Fatal("stopped = false after Stop ended the run")
	}
	if e.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", e.Pending())
	}
	// Resuming works: the next bounded run consumes the remaining event
	// and, completing normally, advances to its deadline.
	e.RunUntil(100)
	if e.stopped {
		t.Fatal("stopped = true after a run that completed normally")
	}
	if e.Now() != 100 {
		t.Fatalf("Now = %v after resume, want 100", e.Now())
	}
}

func TestEngineRunBeforeStopKeepsClock(t *testing.T) {
	e := NewEngine()
	e.At(10, "stopper", func(en *Engine) { en.Stop() })
	e.RunBefore(100)
	if e.Now() != 10 {
		t.Fatalf("Now = %v after early Stop, want 10", e.Now())
	}
	if !e.stopped {
		t.Fatal("stopped = false after Stop ended the run")
	}
}

func TestEngineExecutedCounter(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 5; i++ {
		e.At(Time(i), "n", func(*Engine) {})
	}
	e.Run()
	if e.Executed() != 5 {
		t.Fatalf("Executed = %d, want 5", e.Executed())
	}
}

// Property: events always fire in nondecreasing time order regardless of
// the scheduling order.
func TestEngineMonotonicProperty(t *testing.T) {
	prop := func(delays []uint16) bool {
		e := NewEngine()
		var fired []Time
		for _, d := range delays {
			at := Time(d)
			e.At(at, "p", func(*Engine) { fired = append(fired, at) })
		}
		e.Run()
		for i := 1; i < len(fired); i++ {
			if fired[i] < fired[i-1] {
				return false
			}
		}
		return len(fired) == len(delays)
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestTimeString(t *testing.T) {
	cases := []struct {
		in   Time
		want string
	}{
		{0, "0s"},
		{65 * Microsecond, "65µs"},
		{10 * Millisecond, "10ms"},
		{2 * Second, "2s"},
		{1500, "1500ns"},
	}
	for _, c := range cases {
		if got := c.in.String(); got != c.want {
			t.Errorf("Time(%d).String() = %q, want %q", int64(c.in), got, c.want)
		}
	}
}

func TestTimeConversions(t *testing.T) {
	if (65 * Microsecond).Micros() != 65 {
		t.Error("Micros conversion wrong")
	}
	if (2 * Second).Seconds() != 2 {
		t.Error("Seconds conversion wrong")
	}
	if (1 * Millisecond).Duration().Microseconds() != 1000 {
		t.Error("Duration conversion wrong")
	}
}

func TestEngineFreeListReuse(t *testing.T) {
	e := NewEngine()
	var tick Handler
	n := 0
	tick = func(en *Engine) {
		n++
		if n < 1000 {
			en.After(1, "tick", tick)
		}
	}
	e.After(1, "tick", tick)
	allocs := testing.AllocsPerRun(100, func() {
		for i := 0; i < 10 && e.step(maxTime); i++ {
		}
	})
	if allocs > 0 {
		t.Fatalf("steady-state self-rescheduling allocated %.1f/run, want 0", allocs)
	}
}

// TestEngineSameInstantRearmReusesStorage: a source that re-arms at the
// instant it fires (a NIC whose next timer is due now) appends to the
// current instant on every pop; the queue must reuse the popped slots
// rather than grow with the events run.
func TestEngineSameInstantRearmReusesStorage(t *testing.T) {
	e := NewEngine()
	var tick Handler
	tick = func(en *Engine) { en.At(en.Now(), "tick", tick) }
	for i := 0; i < 8; i++ {
		e.At(5, "tick", tick)
	}
	for i := 0; i < 10000; i++ {
		e.step(maxTime)
	}
	if e.Now() != 5 || e.Pending() != 8 {
		t.Fatalf("now %v, %d pending; want 5ns, 8", e.Now(), e.Pending())
	}
	if c := cap(e.cur); c > 16 {
		t.Fatalf("10 000 same-instant re-arms of 8 events grew the current instant to %d slots, want <= 16", c)
	}
}

func TestEngineStaleRefDoesNotCancelReusedSlot(t *testing.T) {
	e := NewEngine()
	stale := e.At(10, "a", func(*Engine) {})
	e.Run() // fires "a"; its struct returns to the free list

	fired := false
	fresh := e.At(20, "b", func(*Engine) { fired = true })
	if stale.ev != fresh.ev {
		t.Skip("free list did not reuse the slot; nothing to test")
	}
	if stale.Valid() {
		t.Fatal("stale ref Valid after slot reuse")
	}
	if e.Cancel(stale) {
		t.Fatal("stale ref canceled a reused slot")
	}
	e.Run()
	if !fired {
		t.Fatal("fresh event did not fire")
	}
	if fresh.Valid() {
		t.Fatal("fired ref still Valid")
	}
}

func TestEngineCancelReleasesClosure(t *testing.T) {
	e := NewEngine()
	big := make([]byte, 1<<20)
	ref := e.At(10, "big", func(*Engine) { _ = big })
	ev := ref.ev
	if !e.Cancel(ref) {
		t.Fatal("Cancel failed")
	}
	if ev.fn != nil {
		t.Fatal("canceled event retains its closure")
	}
	if len(e.free) != 1 {
		t.Fatalf("free list length = %d, want 1", len(e.free))
	}
}

func TestEnginePopReleasesClosure(t *testing.T) {
	e := NewEngine()
	ref := e.At(10, "x", func(*Engine) {})
	ev := ref.ev
	e.Run()
	if ev.fn != nil {
		t.Fatal("fired event retains its closure")
	}
}

func TestEngineFreeListBoundedByPendingDepth(t *testing.T) {
	e := NewEngine()
	for i := 0; i < 64; i++ {
		e.At(Time(i), "x", func(*Engine) {})
	}
	e.Run()
	if len(e.free) > 64 {
		t.Fatalf("free list length = %d, want <= 64", len(e.free))
	}
	// A second wave of the same depth must not grow the free list.
	for i := 0; i < 64; i++ {
		e.At(e.Now()+Time(i+1), "y", func(*Engine) {})
	}
	e.Run()
	if len(e.free) > 64 {
		t.Fatalf("free list grew to %d after reuse wave, want <= 64", len(e.free))
	}
}

// TestEventFitsSixtyFourBytes: every pending event is one allocation of
// the free list's high water, and a 96-byte event (one more field) moves
// it to the next size class.
func TestEventFitsSixtyFourBytes(t *testing.T) {
	if n := unsafe.Sizeof(event{}); n > 64 {
		t.Fatalf("event is %d bytes, want <= 64", n)
	}
}

// TestEngineEventsComeInBlocks: a new pending-depth high water takes its
// events from blocks of eventBlock, so reaching depth 100 on a fresh
// engine costs four blocks (and the engine, where it escapes), and a
// second wave to the same depth costs nothing.
func TestEngineEventsComeInBlocks(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	noop := func(*Engine) {}
	wave := func(e *Engine) {
		for i := 0; i < 100; i++ {
			e.At(e.Now()+Time(i+1), "x", noop)
		}
	}
	if allocs := testing.AllocsPerRun(10, func() { wave(NewEngine()) }); allocs > 1+4 {
		t.Fatalf("a fresh engine reaching depth 100 allocated %.0f times, want at most 1 + 4 blocks of %d", allocs, eventBlock)
	}
	e := NewEngine()
	wave(e)
	e.Run()
	if allocs := testing.AllocsPerRun(10, func() { wave(e); e.Run() }); allocs != 0 {
		t.Fatalf("a second wave to the same depth allocated %.0f times, want 0", allocs)
	}
}
