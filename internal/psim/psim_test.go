package psim

import (
	"reflect"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

func TestLookaheadTable(t *testing.T) {
	gbit := ethernet.Gbps
	cases := []struct {
		name string
		cuts []CutLink
		want sim.Time
	}{
		{
			// Degenerate: a single partition (or any partitioning of a
			// cut-free graph) has no inter-partition channel at all.
			name: "zero cuts is unbounded",
			cuts: nil,
			want: Unbounded,
		},
		{
			name: "empty slice is unbounded",
			cuts: []CutLink{},
			want: Unbounded,
		},
		{
			// 64-byte min frame at 1 Gbps serializes in 512ns; plus the
			// 100ns cable: no event can cross in under 612ns.
			name: "single gigabit cut",
			cuts: []CutLink{{Prop: 100, Rate: gbit}},
			want: 100 + ethernet.TxTime(ethernet.MinFrameBytes, gbit),
		},
		{
			name: "minimum over heterogeneous cuts",
			cuts: []CutLink{
				{Prop: 10 * sim.Microsecond, Rate: gbit},
				{Prop: 100, Rate: gbit},                // the minimum: 612ns
				{Prop: 100, Rate: 100 * ethernet.Mbps}, // slower wire: 5220ns
				{Prop: 50 * sim.Microsecond, Rate: gbit},
			},
			want: 100 + ethernet.TxTime(ethernet.MinFrameBytes, gbit),
		},
		{
			// Propagation dominates on a long cable even at a slow rate.
			name: "store-and-forward term",
			cuts: []CutLink{{Prop: 0, Rate: 10 * ethernet.Mbps}},
			want: ethernet.TxTime(ethernet.MinFrameBytes, 10*ethernet.Mbps),
		},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := Lookahead(c.cuts); got != c.want {
				t.Fatalf("Lookahead = %v, want %v", got, c.want)
			}
		})
	}
	// Sanity anchor for the gigabit numbers above.
	if w := ethernet.TxTime(ethernet.MinFrameBytes, gbit); w != 512 {
		t.Fatalf("min-frame gigabit serialization = %v, want 512ns", w)
	}
}

func TestAssignRingContiguousArcs(t *testing.T) {
	topo := topology.Ring(12)
	assign := Assign(topo, 4)
	// Ascending ID blocks on a ring are the contiguous arcs
	// [0..2] [3..5] [6..8] [9..11].
	want := []int{0, 0, 0, 1, 1, 1, 2, 2, 2, 3, 3, 3}
	if !reflect.DeepEqual(assign, want) {
		t.Fatalf("assign = %v, want %v", assign, want)
	}
	// A unidirectional 12-ring split into 4 arcs cuts exactly 4 cables.
	if cuts := CutTrunks(topo, assign); len(cuts) != 4 {
		t.Fatalf("cut %d cables, want 4", len(cuts))
	}
}

func TestAssignBalanced(t *testing.T) {
	for _, n := range []int{7, 16, 100} {
		for _, parts := range []int{1, 2, 3, 5, 8} {
			topo := topology.Ring(n)
			assign := Assign(topo, parts)
			count := map[int]int{}
			for _, p := range assign {
				count[p]++
			}
			eff := parts
			if eff > n {
				eff = n
			}
			if len(count) != eff {
				t.Fatalf("ring(%d)/%d: %d non-empty partitions, want %d", n, parts, len(count), eff)
			}
			min, max := n, 0
			for _, c := range count {
				if c < min {
					min = c
				}
				if c > max {
					max = c
				}
			}
			if max-min > 1 {
				t.Fatalf("ring(%d)/%d: imbalanced partitions %v", n, parts, count)
			}
		}
	}
}

func TestAssignSinglePartitionHasNoCuts(t *testing.T) {
	topo := topology.Tree(4, 3)
	assign := Assign(topo, 1)
	for sw, p := range assign {
		if p != 0 {
			t.Fatalf("switch %d assigned to %d with one partition", sw, p)
		}
	}
	if cuts := CutTrunks(topo, assign); len(cuts) != 0 {
		t.Fatalf("single partition cut %d cables, want 0", len(cuts))
	}
}

func TestAssignCoversEverySwitch(t *testing.T) {
	for _, build := range []func() *topology.Topology{
		func() *topology.Topology { return topology.Star(6) },
		func() *topology.Topology { return topology.Linear(9) },
		func() *topology.Topology { return topology.RingBidir(8) },
		func() *topology.Topology { return topology.Tree(3, 4) },
	} {
		topo := build()
		assign := Assign(topo, 3)
		if len(assign) != topo.N {
			t.Fatalf("%v: assign length %d, want %d", topo.Kind, len(assign), topo.N)
		}
		for sw, p := range assign {
			if p < 0 || p >= 3 {
				t.Fatalf("%v: switch %d assigned out of range: %d", topo.Kind, sw, p)
			}
		}
	}
}

// recorder collects scheduled remote deliveries for mailbox tests.
type recorder struct {
	got []Message
}

func (r *recorder) ScheduleRemoteDelivery(f *ethernet.Frame, at, wire sim.Time) {
	r.got = append(r.got, Message{To: r, Frame: f, At: at, Wire: wire})
}

func TestMailboxFIFOThroughOverflow(t *testing.T) {
	rec := &recorder{}
	m := NewMailbox(4)
	frames := make([]*ethernet.Frame, 10)
	for i := range frames {
		frames[i] = &ethernet.Frame{}
		m.Post(Message{To: rec, Frame: frames[i], At: sim.Time(i), Wire: 1})
	}
	if m.Len() != 10 {
		t.Fatalf("Len = %d, want 10", m.Len())
	}
	m.Drain()
	if m.Len() != 0 {
		t.Fatalf("Len after drain = %d, want 0", m.Len())
	}
	if len(rec.got) != 10 {
		t.Fatalf("drained %d messages, want 10", len(rec.got))
	}
	for i, msg := range rec.got {
		if msg.Frame != frames[i] || msg.At != sim.Time(i) {
			t.Fatalf("message %d out of order: at=%v", i, msg.At)
		}
	}
	// The ring is reusable and the overflow slice drained for good.
	rec.got = nil
	m.Post(Message{To: rec, Frame: frames[0], At: 99, Wire: 1})
	m.Drain()
	if len(rec.got) != 1 || rec.got[0].At != 99 {
		t.Fatalf("mailbox not reusable after overflow: %v", rec.got)
	}
}

// engineReceiver schedules drained messages as prioritized engine
// events and records execution order — a stand-in for netdev.Ifc.
type engineReceiver struct {
	engine *sim.Engine
	prio   uint64
	log    *[]sim.Time
}

func (e *engineReceiver) ScheduleRemoteDelivery(f *ethernet.Frame, at, wire sim.Time) {
	e.engine.AtPrio(at, e.prio, "rdeliver", func(en *sim.Engine) {
		*e.log = append(*e.log, en.Now())
	})
}

// TestRunnerPingPong drives two partitions that mail each other a
// "frame" every window and checks both executed the full exchange in
// timestamp order up to the deadline, inclusive.
func TestRunnerPingPong(t *testing.T) {
	const window = sim.Time(100)
	ea, eb := sim.NewEngine(), sim.NewEngine()
	var logA, logB []sim.Time
	recvA := &engineReceiver{engine: ea, prio: 1, log: &logA}
	recvB := &engineReceiver{engine: eb, prio: 2, log: &logB}
	aToB := NewMailbox(2)
	bToA := NewMailbox(2)

	pa, pb := NewPartition(ea), NewPartition(eb)
	pa.AddInbox(bToA)
	pb.AddInbox(aToB)

	// Every 50ns each side posts a message that arrives exactly one
	// window later — the tightest arrival the protocol admits.
	var tickA, tickB sim.Handler
	tickA = func(en *sim.Engine) {
		aToB.Post(Message{To: recvB, Frame: &ethernet.Frame{}, At: en.Now() + window, Wire: 1})
		en.After(50, "tickA", tickA)
	}
	tickB = func(en *sim.Engine) {
		bToA.Post(Message{To: recvA, Frame: &ethernet.Frame{}, At: en.Now() + window, Wire: 1})
		en.After(50, "tickB", tickB)
	}
	ea.At(0, "tickA", tickA)
	eb.At(0, "tickB", tickB)

	r := NewRunner([]*Partition{pa, pb}, window)
	const deadline = sim.Time(1000)
	r.RunUntil(deadline)

	if ea.Now() != deadline || eb.Now() != deadline {
		t.Fatalf("clocks = %v/%v, want %v", ea.Now(), eb.Now(), deadline)
	}
	// Ticks at 0,50,...,1000 arrive at 100,150,...,1100; arrivals ≤ 1000
	// execute: 100..1000 step 50 = 19 deliveries per side.
	for side, log := range map[string][]sim.Time{"A": logA, "B": logB} {
		if len(log) != 19 {
			t.Fatalf("side %s delivered %d messages, want 19 (%v)", side, len(log), log)
		}
		for i, at := range log {
			if want := sim.Time(100 + 50*i); at != want {
				t.Fatalf("side %s delivery %d at %v, want %v", side, i, at, want)
			}
		}
	}
}

// TestRunnerUnboundedWindow checks the zero-cut degenerate case: one
// window straight to the deadline.
func TestRunnerUnboundedWindow(t *testing.T) {
	ea, eb := sim.NewEngine(), sim.NewEngine()
	// One counter per partition: each is touched only by its own worker.
	ran := make([]int, 2)
	for i, e := range []*sim.Engine{ea, eb} {
		i := i
		var tick sim.Handler
		tick = func(en *sim.Engine) {
			ran[i]++
			en.After(10, "tick", tick)
		}
		e.At(0, "tick", tick)
	}
	r := NewRunner([]*Partition{NewPartition(ea), NewPartition(eb)}, Unbounded)
	r.RunUntil(1000)
	if ea.Now() != 1000 || eb.Now() != 1000 {
		t.Fatalf("clocks = %v/%v, want 1000", ea.Now(), eb.Now())
	}
	if ran[0]+ran[1] != 2*101 {
		t.Fatalf("ran %d events, want %d", ran[0]+ran[1], 2*101)
	}
}

// TestRunnerRepeatedRunUntil checks a runner advances across several
// calls (the testbed runs warmup and measurement as separate spans).
func TestRunnerRepeatedRunUntil(t *testing.T) {
	e := sim.NewEngine()
	n := 0
	var tick sim.Handler
	tick = func(en *sim.Engine) {
		n++
		en.After(30, "tick", tick)
	}
	e.At(0, "tick", tick)
	r := NewRunner([]*Partition{NewPartition(e)}, 100)
	r.RunUntil(300)
	if n != 11 {
		t.Fatalf("after first span: %d ticks, want 11", n)
	}
	r.RunUntil(600)
	if n != 21 {
		t.Fatalf("after second span: %d ticks, want 21", n)
	}
	if e.Now() != 600 {
		t.Fatalf("Now = %v, want 600", e.Now())
	}
}

func TestNewRunnerRejectsNonPositiveWindow(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("zero window did not panic")
		}
	}()
	NewRunner([]*Partition{NewPartition(sim.NewEngine())}, 0)
}

// TestRunnerRoundTripBound pins the next_k+2W term of the window
// limit. A's earliest event mails idle B, B replies on receipt, and A
// holds a local event one nanosecond after the reply lands: with no
// other partition holding anything, only the round-trip bound keeps A
// from running past an arrival its own message provoked (dropping the
// term schedules the reply into A's past, which the engine rejects with
// a panic).
func TestRunnerRoundTripBound(t *testing.T) {
	const w = sim.Time(100)
	ea, eb := sim.NewEngine(), sim.NewEngine()
	aToB, bToA := NewMailbox(1), NewMailbox(1)
	pa, pb := NewPartition(ea), NewPartition(eb)
	pa.AddInbox(bToA)
	pb.AddInbox(aToB)

	var order []string // A's events, appended by A's worker only
	recvA := &funcReceiver{engine: ea, prio: 1, fn: func() { order = append(order, "reply") }}
	recvB := &funcReceiver{engine: eb, prio: 2}
	recvB.fn = func() {
		bToA.Post(Message{To: recvA, Frame: &ethernet.Frame{}, At: eb.Now() + w, Wire: 1})
	}
	ea.At(0, "send", func(*sim.Engine) {
		aToB.Post(Message{To: recvB, Frame: &ethernet.Frame{}, At: w, Wire: 1})
	})
	ea.At(2*w+1, "local", func(*sim.Engine) { order = append(order, "local") })

	NewRunner([]*Partition{pa, pb}, w).RunUntil(10 * w)
	if want := []string{"reply", "local"}; !reflect.DeepEqual(order, want) {
		t.Fatalf("A executed %v, want %v", order, want)
	}
}

// funcReceiver runs fn when a drained message's delivery executes.
type funcReceiver struct {
	engine *sim.Engine
	prio   uint64
	fn     func()
}

func (r *funcReceiver) ScheduleRemoteDelivery(f *ethernet.Frame, at, wire sim.Time) {
	r.engine.AtPrio(at, r.prio, "rdeliver", func(*sim.Engine) { r.fn() })
}

// TestRunnerSkipsIdleTime checks windows follow events, not simulated
// time: two events a second apart cost a window each plus the final one
// (the fixed-step loop took 1.6 M windows of 612 ns to cross the gap).
func TestRunnerSkipsIdleTime(t *testing.T) {
	ea, eb := sim.NewEngine(), sim.NewEngine()
	ran := 0
	ea.At(0, "first", func(*sim.Engine) { ran++ })
	ea.At(sim.Second, "second", func(*sim.Engine) { ran++ })
	r := NewRunner([]*Partition{NewPartition(ea), NewPartition(eb)}, 612)
	r.RunUntil(2 * sim.Second)
	if ran != 2 || ea.Now() != 2*sim.Second || eb.Now() != 2*sim.Second {
		t.Fatalf("ran %d events, clocks %v/%v", ran, ea.Now(), eb.Now())
	}
	st := r.Stats()
	if st[0].Windows > 4 || st[1].Windows != st[0].Windows {
		t.Fatalf("%d/%d windows for two events one second apart, want ≤ 4", st[0].Windows, st[1].Windows)
	}
	if st[0].Events != 2 || st[1].Events != 0 {
		t.Fatalf("per-partition events %d/%d, want 2/0", st[0].Events, st[1].Events)
	}
}
