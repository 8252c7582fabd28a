package gptp

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/clock"
	"github.com/tsnbuilder/tsnbuilder/internal/israce"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// buildLine creates a chain gm - n1 - n2 - ... with the given drifts.
func buildLine(e *sim.Engine, drifts []clock.PPB, linkDelay sim.Time) *Domain {
	d := NewDomain(e)
	var prev *Node
	for i, drift := range drifts {
		// Give every node a distinct initial phase error up to ±0.5 ms.
		off := sim.Time(int64(i*137_000) - 250_000)
		n := d.AddNode(i, drift, off)
		if prev != nil {
			d.Connect(prev, n, linkDelay)
		}
		prev = n
	}
	d.SetGrandmaster(d.Nodes()[0])
	return d
}

func TestTwoNodeConvergence(t *testing.T) {
	e := sim.NewEngine()
	d := buildLine(e, []clock.PPB{0, 40_000}, 500*sim.Nanosecond)
	d.Start()
	e.RunUntil(2 * sim.Second)
	if got := d.MaxAbsOffset(); got > 50*sim.Nanosecond {
		t.Fatalf("two-node offset after 2s = %v, want < 50ns", got)
	}
}

func TestSixNodeRingPrecision(t *testing.T) {
	// The paper's demo: 6 switches in a ring, sub-50 ns precision.
	e := sim.NewEngine()
	d := NewDomain(e)
	drifts := []clock.PPB{0, 35_000, -42_000, 18_500, -7_300, 49_000}
	nodes := make([]*Node, len(drifts))
	for i, dr := range drifts {
		nodes[i] = d.AddNode(i, dr, sim.Time(i)*100*sim.Microsecond)
	}
	for i := range nodes {
		d.Connect(nodes[i], nodes[(i+1)%len(nodes)], 400*sim.Nanosecond)
	}
	d.SetGrandmaster(nodes[0])
	d.Start()
	e.RunUntil(2 * sim.Second)

	// Track the worst offset over a steady-state window.
	var worst sim.Time
	for i := 0; i < 50; i++ {
		e.RunFor(SyncInterval / 2)
		if off := d.MaxAbsOffset(); off > worst {
			worst = off
		}
	}
	if worst > 50*sim.Nanosecond {
		t.Fatalf("6-node ring steady-state precision = %v, want < 50ns", worst)
	}
	t.Logf("steady-state precision: %v", worst)
}

func TestPdelayAccuracy(t *testing.T) {
	e := sim.NewEngine()
	d := buildLine(e, []clock.PPB{0, 10_000}, 750*sim.Nanosecond)
	d.Start()
	e.RunUntil(2 * sim.Second)
	slave := d.Nodes()[1]
	delay := slave.upstream.measuredDelay
	if !slave.upstream.hasDelay {
		t.Fatal("no pdelay measurement completed")
	}
	err := delay - d.msgDelay(slave.upstream)
	if err < 0 {
		err = -err
	}
	if err > 30*sim.Nanosecond {
		t.Fatalf("pdelay error = %v (measured %v)", err, delay)
	}
}

func TestStepOnFirstSync(t *testing.T) {
	e := sim.NewEngine()
	d := buildLine(e, []clock.PPB{0, 20_000}, 100*sim.Nanosecond)
	d.Start()
	e.RunUntil(sim.Second)
	st := d.Stats()
	if len(st) != 1 {
		t.Fatalf("Stats len = %d", len(st))
	}
	if st[0].StepCount < 1 {
		t.Fatal("slave never stepped despite large initial offset")
	}
	if st[0].SyncCount < 10 {
		t.Fatalf("only %d syncs in 1s", st[0].SyncCount)
	}
}

func TestHighDriftStillConverges(t *testing.T) {
	// ±100 ppm, the worst commodity crystal spec.
	e := sim.NewEngine()
	d := buildLine(e, []clock.PPB{0, 100_000, -100_000}, 300*sim.Nanosecond)
	d.Start()
	e.RunUntil(3 * sim.Second)
	if got := d.MaxAbsOffset(); got > 100*sim.Nanosecond {
		t.Fatalf("high-drift offset = %v", got)
	}
}

func TestUnreachableNodePanics(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e)
	a := d.AddNode(0, 0, 0)
	d.AddNode(1, 0, 0) // never connected
	defer func() {
		if recover() == nil {
			t.Error("SetGrandmaster with unreachable node did not panic")
		}
	}()
	d.SetGrandmaster(a)
}

func TestStartWithoutGMPanics(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e)
	d.AddNode(0, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("Start without grandmaster did not panic")
		}
	}()
	d.Start()
}

func TestNegativeLinkDelayPanics(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e)
	a := d.AddNode(0, 0, 0)
	b := d.AddNode(1, 0, 0)
	defer func() {
		if recover() == nil {
			t.Error("negative link delay did not panic")
		}
	}()
	d.Connect(a, b, -1)
}

func TestStarTopologySync(t *testing.T) {
	// Core with three children, as in the paper's star scenario.
	e := sim.NewEngine()
	d := NewDomain(e)
	core := d.AddNode(0, 0, 0)
	for i := 1; i <= 3; i++ {
		child := d.AddNode(i, clock.PPB(i*13_000-20_000), sim.Time(i)*50*sim.Microsecond)
		d.Connect(core, child, 350*sim.Nanosecond)
	}
	d.SetGrandmaster(core)
	d.Start()
	e.RunUntil(2 * sim.Second)
	if got := d.MaxAbsOffset(); got > 50*sim.Nanosecond {
		t.Fatalf("star precision = %v, want < 50ns", got)
	}
}

func TestOffsetDeterminism(t *testing.T) {
	run := func() sim.Time {
		e := sim.NewEngine()
		d := buildLine(e, []clock.PPB{0, 33_000, -21_000}, 200*sim.Nanosecond)
		d.Start()
		e.RunUntil(sim.Second)
		return d.MaxAbsOffset()
	}
	if run() != run() {
		t.Fatal("gPTP simulation is not deterministic")
	}
}

// TestMessagesAllocateNothing: every exchange crosses the codec in its
// port's own frame and the handlers are bound once per port, so once
// the domain runs, a second of syncs (32 per master port) and peer-delay
// measurements (4 per port) allocates nothing.
func TestMessagesAllocateNothing(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	e := sim.NewEngine()
	d := buildLine(e, []clock.PPB{0, 40_000, -30_000, 20_000}, 100*sim.Nanosecond)
	d.Start()
	e.RunUntil(sim.Second)
	before := d.Stats()
	if allocs := testing.AllocsPerRun(2, func() { e.RunFor(sim.Second) }); allocs != 0 {
		t.Fatalf("a second of gPTP allocated %.0f times, want none", allocs)
	}
	for i, st := range d.Stats() { // three seconds of 31 or 32 syncs each
		if got := st.SyncCount - before[i].SyncCount; got < 3*31 {
			t.Fatalf("node %d applied %d syncs in three seconds", st.NodeID, got)
		}
	}
}

// TestSecondExchangeOfAKindPanics: a port keeps one in-flight exchange
// of each kind; starting another while it is pending would overwrite
// its timestamps, and panics instead.
func TestSecondExchangeOfAKindPanics(t *testing.T) {
	e := sim.NewEngine()
	d := buildLine(e, []clock.PPB{0, 0}, 100*sim.Nanosecond)
	p := d.Nodes()[0].ports[0]
	d.measurePdelay(p)
	defer func() {
		if recover() == nil {
			t.Fatal("a second pdelay exchange started while one was in flight")
		}
	}()
	d.measurePdelay(p)
}
