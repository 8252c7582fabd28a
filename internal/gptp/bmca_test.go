package gptp

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/clock"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

func TestMessageCodecRoundTrip(t *testing.T) {
	for _, typ := range []MsgType{MsgSync, MsgFollowUp, MsgPdelayReq, MsgPdelayResp, MsgAnnounce} {
		m := &Message{
			Type: typ, Seq: 1234, OriginTS: 987654321,
			Correction: -42,
			Priority:   PriorityVector{Priority1: 128, ClockClass: 6, ClockID: 77},
			Steps:      3,
		}
		f := m.Marshal(ethernet.SwitchMAC(1))
		if f.EtherType != ethernet.TypePTP || f.PCP != 7 {
			t.Fatalf("%v: frame header %+v", typ, f)
		}
		got, err := UnmarshalMessage(f)
		if err != nil {
			t.Fatalf("%v: %v", typ, err)
		}
		if *got != *m {
			t.Fatalf("%v round trip:\n got %+v\nwant %+v", typ, got, m)
		}
	}
}

func TestMessageCodecErrors(t *testing.T) {
	if _, err := UnmarshalMessage(&ethernet.Frame{EtherType: ethernet.TypeTSN}); err == nil {
		t.Error("non-PTP frame accepted")
	}
	if _, err := UnmarshalMessage(&ethernet.Frame{EtherType: ethernet.TypePTP, Payload: []byte{2, 0}}); err == nil {
		t.Error("truncated body accepted")
	}
	bad := (&Message{Type: MsgSync}).Marshal(ethernet.SwitchMAC(0))
	bad.Payload[0] = 9 // wrong version
	if _, err := UnmarshalMessage(bad); err == nil {
		t.Error("wrong version accepted")
	}
	bad2 := (&Message{Type: MsgSync}).Marshal(ethernet.SwitchMAC(0))
	bad2.Payload[1] = 0x7 // unknown type
	if _, err := UnmarshalMessage(bad2); err == nil {
		t.Error("unknown type accepted")
	}
}

func TestMsgTypeStrings(t *testing.T) {
	for _, typ := range []MsgType{MsgSync, MsgFollowUp, MsgPdelayReq, MsgPdelayResp, MsgAnnounce} {
		if typ.String() == "" {
			t.Fatal("empty type name")
		}
	}
	if MsgType(0x7).String() != "MsgType(0x7)" {
		t.Fatalf("unknown type formatting: %s", MsgType(0x7))
	}
}

func TestPriorityVectorOrdering(t *testing.T) {
	a := PriorityVector{Priority1: 128, ClockClass: 6, ClockID: 5}
	b := PriorityVector{Priority1: 128, ClockClass: 6, ClockID: 9}
	c := PriorityVector{Priority1: 128, ClockClass: 7, ClockID: 1}
	d := PriorityVector{Priority1: 200, ClockClass: 6, ClockID: 1}
	if !a.Less(b) || !a.Less(c) || !a.Less(d) || !b.Less(c) || !c.Less(d) {
		t.Fatal("ordering wrong")
	}
	if a.Less(a) {
		t.Fatal("irreflexivity broken")
	}
}

// electRing builds a 6-node ring with node wantGM given the best
// identity.
func electRing(t *testing.T, wantGM int) (*sim.Engine, *Domain) {
	t.Helper()
	e := sim.NewEngine()
	d := NewDomain(e)
	nodes := make([]*Node, 6)
	for i := range nodes {
		nodes[i] = d.AddNode(i, clock.PPB(i*9_000-20_000), sim.Time(i)*30*sim.Microsecond)
	}
	for i := range nodes {
		d.Connect(nodes[i], nodes[(i+1)%6], 300*sim.Nanosecond)
	}
	d.SetPriority(nodes[wantGM], PriorityVector{Priority1: 100, ClockClass: 6, ClockID: 42})
	return e, d
}

func TestElection(t *testing.T) {
	_, d := electRing(t, 3)
	gm, err := ElectAndAssumeForTest(d)
	if err != nil {
		t.Fatal(err)
	}
	if gm.ID != 3 {
		t.Fatalf("elected %d, want 3", gm.ID)
	}
	if d.Grandmaster() != gm {
		t.Fatal("domain grandmaster not updated")
	}
	// Every other node has an upstream port: the announces reached it.
	for _, n := range d.Nodes() {
		if n != gm && n.upstream == nil {
			t.Fatalf("node %d has no upstream", n.ID)
		}
	}
}

// ElectAndAssumeForTest exposes ElectAndAssume (kept in a helper so the
// test reads naturally).
func ElectAndAssumeForTest(d *Domain) (*Node, error) { return d.ElectAndAssume() }

func TestElectionThenSyncConverges(t *testing.T) {
	e, d := electRing(t, 2)
	if _, err := d.ElectAndAssume(); err != nil {
		t.Fatal(err)
	}
	d.Start()
	e.RunUntil(2 * sim.Second)
	if got := d.MaxAbsOffset(); got > 50*sim.Nanosecond {
		t.Fatalf("post-election precision = %v", got)
	}
}

func TestGrandmasterFailover(t *testing.T) {
	e, d := electRing(t, 0)
	if _, err := d.ElectAndAssume(); err != nil {
		t.Fatal(err)
	}
	d.Start()
	e.RunUntil(2 * sim.Second)
	before := d.MaxAbsOffset()
	if before > 50*sim.Nanosecond {
		t.Fatalf("pre-failure precision = %v", before)
	}
	// Kill the grandmaster mid-run.
	oldGM := d.Grandmaster()
	if err := d.FailNode(oldGM); err != nil {
		t.Fatal(err)
	}
	newGM := d.Grandmaster()
	if newGM == oldGM || !newGM.alive {
		t.Fatal("failover did not elect a new grandmaster")
	}
	// The ring minus one node is a line; survivors must re-converge to
	// the new grandmaster.
	e.RunFor(3 * sim.Second)
	if got := d.MaxAbsOffset(); got > 60*sim.Nanosecond {
		t.Fatalf("post-failover precision = %v", got)
	}
}

func TestFailNonGMTransitNode(t *testing.T) {
	e, d := electRing(t, 0)
	if _, err := d.ElectAndAssume(); err != nil {
		t.Fatal(err)
	}
	d.Start()
	e.RunUntil(sim.Second)
	// Fail a transit node: the ring reroutes around it.
	if err := d.FailNode(d.Nodes()[3]); err != nil {
		t.Fatal(err)
	}
	if d.Grandmaster().ID != 0 {
		t.Fatal("grandmaster changed on non-GM failure")
	}
	e.RunFor(3 * sim.Second)
	if got := d.MaxAbsOffset(); got > 60*sim.Nanosecond {
		t.Fatalf("post-transit-failure precision = %v", got)
	}
}

func TestAutoFailoverOnKilledGM(t *testing.T) {
	e, d := electRing(t, 0)
	if _, err := d.ElectAndAssume(); err != nil {
		t.Fatal(err)
	}
	d.EnableAutoFailover()
	d.Start()
	e.RunUntil(2 * sim.Second)
	oldGM := d.Grandmaster()
	// Crash: no administrative notification.
	d.KillNode(oldGM)
	e.RunFor(4 * sim.Second)
	newGM := d.Grandmaster()
	if newGM == oldGM {
		t.Fatal("watchdog never detected the dead grandmaster")
	}
	if got := d.MaxAbsOffset(); got > 60*sim.Nanosecond {
		t.Fatalf("post-auto-failover precision = %v", got)
	}
}

func TestAutoFailoverQuietWhenHealthy(t *testing.T) {
	e, d := electRing(t, 2)
	if _, err := d.ElectAndAssume(); err != nil {
		t.Fatal(err)
	}
	d.EnableAutoFailover()
	d.Start()
	e.RunUntil(3 * sim.Second)
	if d.Grandmaster().ID != 2 {
		t.Fatal("watchdog displaced a healthy grandmaster")
	}
	if got := d.MaxAbsOffset(); got > 50*sim.Nanosecond {
		t.Fatalf("precision with watchdog armed = %v", got)
	}
}

func TestElectionPartitionDetected(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e)
	a := d.AddNode(0, 0, 0)
	b := d.AddNode(1, 0, 0)
	c := d.AddNode(2, 0, 0)
	d.Connect(a, b, 100)
	// c is isolated.
	_ = c
	if _, err := d.Elect(); err == nil {
		t.Fatal("partitioned election succeeded")
	}
}

func TestElectionNoAliveNodes(t *testing.T) {
	e := sim.NewEngine()
	d := NewDomain(e)
	n := d.AddNode(0, 0, 0)
	n.alive = false
	if _, err := d.Elect(); err == nil {
		t.Fatal("election over dead domain succeeded")
	}
}

func TestSetGrandmasterStillWins(t *testing.T) {
	// The legacy SetGrandmaster path must produce an identity that a
	// subsequent election confirms.
	_, d := electRing(t, 5)
	d.SetGrandmaster(d.Nodes()[1])
	gm, err := d.Elect()
	if err != nil {
		t.Fatal(err)
	}
	// Node 1 now has Priority1 128 < node 5's 100? No: SetGrandmaster
	// gives 128, node 5 has 100 — node 5 still outranks it.
	if gm.ID != 5 {
		t.Fatalf("elected %d, want 5 (best Priority1)", gm.ID)
	}
}

func TestHoldoverKeepsTrim(t *testing.T) {
	// A killed node free-runs on its last servo state (holdover): the
	// frequency trim learned while locked keeps it within microseconds
	// of the grandmaster over the next second, far better than its raw
	// ±ppm oscillator would manage (7 µs/s for this node).
	e, d := electRing(t, 0)
	if _, err := d.ElectAndAssume(); err != nil {
		t.Fatal(err)
	}
	d.Start()
	e.RunUntil(2 * sim.Second)
	victim := d.Nodes()[3] // intrinsic drift 7000 ppb in electRing
	syncsAtKill := victim.syncCount
	d.KillNode(victim)
	if err := d.FailNode(victim); err != nil { // rebuild tree around it
		t.Fatal(err)
	}
	e.RunFor(sim.Second)
	// No further corrections land on a dead node.
	if victim.syncCount != syncsAtKill {
		t.Fatalf("dead node still syncing (%d → %d)", syncsAtKill, victim.syncCount)
	}
	off := d.OffsetFromGM(victim)
	if off < 0 {
		off = -off
	}
	// Far better than uncorrected drift (7 µs), far worse than locked
	// (< 50 ns): holdover on the trimmed frequency.
	if off > 2*sim.Microsecond {
		t.Fatalf("holdover offset %v, trim not retained", off)
	}
	// Survivors remain synchronized.
	if got := d.MaxAbsOffset(); got > 60*sim.Nanosecond {
		t.Fatalf("survivors drifted: %v", got)
	}
}
