package tsnnic

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/analyzer"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/frer"
	"github.com/tsnbuilder/tsnbuilder/internal/israce"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// wirePair connects a generator NIC to a sink NIC back-to-back.
func wirePair(e *sim.Engine) (*NIC, *NIC, *analyzer.Collector) {
	col := analyzer.NewCollector()
	gen := New(e, 1, ethernet.Gbps, nil)
	rcv := New(e, 2, ethernet.Gbps, col)
	netdev.Connect(gen.Ifc(), rcv.Ifc(), 100*sim.Nanosecond)
	return gen, rcv, col
}

func tsSpec() *flows.Spec {
	return &flows.Spec{
		ID: 1, Class: ethernet.ClassTS, SrcHost: 1, DstHost: 2,
		VID: 1, PCP: 7, WireSize: 64, Period: sim.Millisecond,
	}
}

func TestPeriodicTSGeneration(t *testing.T) {
	e := sim.NewEngine()
	gen, _, col := wirePair(e)
	gen.SetStopTime(10 * sim.Millisecond)
	gen.StartFlow(tsSpec())
	e.RunUntil(20 * sim.Millisecond)
	// Ticks at 0,1,...,9 ms → 10 frames.
	if gen.Sent()[1] != 10 {
		t.Fatalf("sent = %d, want 10", gen.Sent()[1])
	}
	st := col.Flow(1)
	if st == nil || st.Received != 10 {
		t.Fatalf("received = %+v", st)
	}
	// Back-to-back link: latency = 512 ns wire + 100 ns prop.
	if st.MeanLatency() != 612 {
		t.Fatalf("latency = %v, want 612ns", st.MeanLatency())
	}
	if st.Jitter() != 0 {
		t.Fatalf("jitter = %v, want 0 on a dedicated wire", st.Jitter())
	}
}

func TestOffsetDelaysFirstFrame(t *testing.T) {
	e := sim.NewEngine()
	gen, _, col := wirePair(e)
	spec := tsSpec()
	spec.Offset = 300 * sim.Microsecond
	gen.SetStopTime(sim.Millisecond)
	gen.StartFlow(spec)
	e.RunUntil(2 * sim.Millisecond)
	if gen.Sent()[1] != 1 {
		t.Fatalf("sent = %d, want 1", gen.Sent()[1])
	}
	// Frame left at 300 µs.
	st := col.Flow(1)
	if st.Received != 1 {
		t.Fatal("frame lost")
	}
}

func TestRCPacing(t *testing.T) {
	e := sim.NewEngine()
	gen, _, col := wirePair(e)
	// 100 Mbps RC flow of 1024B frames: interval = 1044B*8/100M = 83.52µs
	// → ~119 frames in 10 ms.
	spec := flows.Background(7, ethernet.ClassRC, 1, 2, 1, 100*ethernet.Mbps)
	gen.SetStopTime(10 * sim.Millisecond)
	gen.StartFlow(spec)
	e.RunUntil(20 * sim.Millisecond)
	sent := gen.Sent()[7]
	if sent < 115 || sent > 123 {
		t.Fatalf("RC frames in 10ms = %d, want ~119", sent)
	}
	if col.Flow(7).Received != sent {
		t.Fatal("RC frames lost on dedicated wire")
	}
}

func TestStrictPriorityAtNIC(t *testing.T) {
	// Saturating BE + periodic TS on one NIC: TS frames still leave
	// within one MTU time of their schedule.
	e := sim.NewEngine()
	gen, _, col := wirePair(e)
	be := flows.Background(2, ethernet.ClassBE, 1, 2, 1, 990*ethernet.Mbps)
	be.WireSize = 1500
	gen.SetStopTime(50 * sim.Millisecond)
	gen.StartFlow(be)
	gen.StartFlow(tsSpec())
	e.RunUntil(60 * sim.Millisecond)
	st := col.Flow(1)
	if st == nil || st.Received == 0 {
		t.Fatal("no TS frames received")
	}
	// Worst case: TS waits one 1500B frame (12.16 µs) + own wire time.
	if st.MaxLat > 15*sim.Microsecond {
		t.Fatalf("TS max latency %v behind BE, want < 15µs", st.MaxLat)
	}
}

func TestSentAtStampedOnWire(t *testing.T) {
	// When the MAC delays a frame, SentAt must reflect wire entry, not
	// schedule time.
	e := sim.NewEngine()
	gen, _, col := wirePair(e)
	big := flows.Background(2, ethernet.ClassBE, 1, 2, 1, ethernet.Mbps)
	big.WireSize = 1500
	ts := tsSpec()
	gen.SetStopTime(sim.Millisecond)
	// Both injected at t=0: BE first grabs the wire (FIFO drain order
	// is by injection), TS queues ~12 µs.
	gen.StartFlow(big)
	gen.StartFlow(ts)
	e.RunUntil(2 * sim.Millisecond)
	st := col.Flow(1)
	if st == nil || st.Received != 1 {
		t.Fatal("TS frame missing")
	}
	// Latency excludes MAC queueing: still wire+prop only.
	if st.MeanLatency() != 612 {
		t.Fatalf("TS latency = %v, want 612ns", st.MeanLatency())
	}
}

func TestWrongHostPanics(t *testing.T) {
	e := sim.NewEngine()
	gen, _, _ := wirePair(e)
	spec := tsSpec()
	spec.SrcHost = 42
	defer func() {
		if recover() == nil {
			t.Error("wrong-host StartFlow did not panic")
		}
	}()
	gen.StartFlow(spec)
}

func TestInvalidSpecPanics(t *testing.T) {
	e := sim.NewEngine()
	gen, _, _ := wirePair(e)
	spec := tsSpec()
	spec.Period = 0
	defer func() {
		if recover() == nil {
			t.Error("invalid spec did not panic")
		}
	}()
	gen.StartFlow(spec)
}

func TestSeqIncrements(t *testing.T) {
	e := sim.NewEngine()
	gen, rcv, _ := wirePair(e)
	_ = rcv
	col := analyzer.NewCollector()
	rcv.Collector = col
	gen.SetStopTime(5 * sim.Millisecond)
	gen.StartFlow(tsSpec())
	e.RunUntil(10 * sim.Millisecond)
	if gen.Sent()[1] != 5 {
		t.Fatalf("sent = %d", gen.Sent()[1])
	}
}

// TestMACFifoReusesArrayAndReleasesFrames: a drained class FIFO rewinds
// onto its backing array (capacity stable burst after burst) and keeps
// no pointer to a frame it already handed to the wire.
func TestMACFifoReusesArrayAndReleasesFrames(t *testing.T) {
	e := sim.NewEngine()
	gen, _, col := wirePair(e)
	spec := tsSpec()
	f := &gen.flows[gen.Admit(spec, 0)]
	const bursts, perBurst = 1200, 4
	capAfterFirst := 0
	for b := 0; b < bursts; b++ {
		for k := 0; k < perBurst; k++ {
			gen.inject(f) // first goes to the wire, the rest queue behind it
		}
		e.Run()
		q := &gen.fifos[classIndex(spec.Class)]
		if len(q.frames) != 0 || q.head != 0 {
			t.Fatalf("burst %d: drained FIFO has len %d head %d", b, len(q.frames), q.head)
		}
		if b == 0 {
			capAfterFirst = cap(q.frames)
		} else if cap(q.frames) != capAfterFirst {
			t.Fatalf("burst %d: FIFO capacity %d, was %d after the first burst", b, cap(q.frames), capAfterFirst)
		}
		for i, f := range q.frames[:cap(q.frames)] {
			if f != nil {
				t.Fatalf("burst %d: backing slot %d still pins frame seq %d", b, i, f.Seq)
			}
		}
	}
	if st := col.Flow(spec.ID); st == nil || st.Received != bursts*perBurst {
		t.Fatalf("received %+v, want %d frames", st, bursts*perBurst)
	}
}

// recvFunc adapts a function to netdev.Receiver.
type recvFunc func(*ethernet.Frame)

func (r recvFunc) Receive(f *ethernet.Frame, _ *netdev.Ifc) { r(f) }

// talker cables a generator NIC to peer and starts count TS flows of
// 64 B on it, one per 50 ns of a 1 ms period.
func talker(e *sim.Engine, peer *netdev.Ifc, count int) *NIC {
	gen := New(e, 1, ethernet.Gbps, nil)
	netdev.Connect(gen.Ifc(), peer, 100*sim.Nanosecond)
	for i := 0; i < count; i++ {
		spec := tsSpec()
		spec.ID, spec.Offset = uint32(1+i), sim.Time(i)*50*sim.Nanosecond
		gen.Start(gen.Admit(spec, 0), 0)
	}
	return gen
}

// wireSink is a talker into an interface that only counts arrivals and
// never returns a frame.
func wireSink(e *sim.Engine, count int) (gen *NIC, frames *int) {
	frames = new(int)
	sink := recvFunc(func(*ethernet.Frame) { *frames++ })
	return talker(e, netdev.NewIfc(e, "sink", sink, ethernet.Gbps), count), frames
}

// TestEngineDepthIndependentOfFlowCount: 1 024 started flows on one NIC
// keep one event in the engine, not 1 024. At every executed event the
// heap holds at most the NIC's timer, the MAC's txdone and the frames
// on the 100 ns cable (one: the next leaves 672 ns after the last).
func TestEngineDepthIndependentOfFlowCount(t *testing.T) {
	e := sim.NewEngine()
	gen, frames := wireSink(e, 1024)
	if e.Pending() != 1 {
		t.Fatalf("%d events pending after registering 1024 flows, want 1", e.Pending())
	}
	worst := 0
	e.SetProgress(1, func(uint64, sim.Time) { worst = max(worst, e.Pending()) })
	gen.SetStopTime(5 * sim.Millisecond)
	e.Run()
	if *frames != 5*1024 {
		t.Fatalf("%d frames delivered, want %d", *frames, 5*1024)
	}
	if worst > 3 {
		t.Fatalf("engine heap reached %d pending events with 1024 flows on one NIC, want <= 3", worst)
	}
}

// TestInjectAllocs: in steady state a tick costs nothing — no closure,
// no label, no event struct, no map growth — and a frame costs nothing
// either once frames come back: a listener NIC on the talker's pool
// returns each one before the next is injected. Into a sink that keeps
// what it receives the pool mints a frame per injection, sixteen to an
// allocation (ethernet.Pool's block), and nothing besides.
func TestInjectAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const flowCount = 256
	measure := func(t *testing.T, e *sim.Engine, delivered func() int) float64 {
		e.RunFor(2 * sim.Millisecond) // warm: both starts, FIFO and event free list grown
		before := delivered()
		const runs = 10
		allocs := testing.AllocsPerRun(runs, func() { e.RunFor(sim.Millisecond) })
		if perRun := (delivered() - before) / (runs + 1); perRun != flowCount { // AllocsPerRun adds one warm-up call
			t.Fatalf("%d frames per period, want %d", perRun, flowCount)
		}
		return allocs
	}
	t.Run("recycled", func(t *testing.T) {
		e := sim.NewEngine()
		rcv := New(e, 2, ethernet.Gbps, nil)
		gen := talker(e, rcv.Ifc(), flowCount)
		rcv.SetPool(gen.pool)
		rx := 0
		rcv.Ifc().SetSniffer(func(*ethernet.Frame, sim.Time) { rx++ })
		allocs := measure(t, e, func() int { return rx })
		if allocs != 0 {
			t.Fatalf("%.1f allocations per %d injected frames, want none", allocs, flowCount)
		}
	})
	t.Run("never-returned", func(t *testing.T) {
		e := sim.NewEngine()
		_, frames := wireSink(e, flowCount)
		if allocs := measure(t, e, func() int { return *frames }); allocs != flowCount/16 {
			t.Fatalf("%.1f allocations per %d injected frames, want one per block of 16", allocs, flowCount)
		}
	})
}

// TestReceiveReturnsTheFrameOnEveryExit: a listener with sequence
// recovery sees each replicated frame twice — one delivered, one
// eliminated — and a replayed old sequence number as a rogue; all three
// ways out of Receive hand the frame back, so after the run the pool
// holds every frame it minted.
func TestReceiveReturnsTheFrameOnEveryExit(t *testing.T) {
	e := sim.NewEngine()
	gen, rcv, col := wirePair(e)
	rcv.SetPool(gen.pool)
	spec := tsSpec()
	tbl := frer.NewTable(1, 4)
	if err := tbl.Register(spec.ID); err != nil {
		t.Fatal(err)
	}
	rcv.SetRecovery(tbl)
	spec.FRER, spec.AltVID = true, 9
	gen.SetStopTime(20 * sim.Millisecond)
	gen.StartFlow(spec)
	e.Run()
	rogue := gen.pool.Get()
	*rogue = ethernet.Frame{FlowID: spec.ID, Seq: 2, Class: ethernet.ClassTS}
	rcv.Receive(rogue, rcv.Ifc())
	st := col.Flow(spec.ID)
	if st.Received != 20 || st.Duplicates != 20 || st.Rogue != 1 {
		t.Fatalf("received/duplicates/rogues = %d/%d/%d, want 20/20/1", st.Received, st.Duplicates, st.Rogue)
	}
	if held, minted := gen.pool.Stats(); held != minted || minted != 2 {
		t.Fatalf("pool holds %d of the %d frames it minted, want 2 of 2 (a primary and its replica)", held, minted)
	}
}

// TestTickVersusTxDoneSameInstant: every millisecond a BE burst of two
// 1500 B frames starts, and the first frame's txdone lands on the exact
// nanosecond of a TS tick. The tick's order number was taken a period
// earlier than the txdone's, so the tick runs first, the TS frame is in
// its FIFO when the MAC frees, and strict priority sends it ahead of
// the second BE frame — on the wire at the tick instant, not one BE
// frame later.
func TestTickVersusTxDoneSameInstant(t *testing.T) {
	e := sim.NewEngine()
	gen := New(e, 1, ethernet.Gbps, nil)
	var tsSent []sim.Time
	sink := recvFunc(func(f *ethernet.Frame) {
		if f.Class == ethernet.ClassTS {
			tsSent = append(tsSent, f.SentAt)
		}
	})
	netdev.Connect(gen.Ifc(), netdev.NewIfc(e, "sink", sink, ethernet.Gbps), 100*sim.Nanosecond)
	const beWire = 1500
	occupancy := ethernet.TxTime(beWire+ethernet.OverheadBytes, ethernet.Gbps)
	be := flows.Background(2, ethernet.ClassBE, 1, 2, 1, ethernet.Gbps)
	be.WireSize, be.Burst = beWire, 2
	be.Rate = ethernet.Rate(int64(beWire+ethernet.OverheadBytes) * 8 * int64(sim.Second) / int64(500*sim.Microsecond))
	if be.FrameInterval() != sim.Millisecond {
		t.Fatalf("BE burst interval %v, want 1ms", be.FrameInterval())
	}
	ts := tsSpec()
	ts.Offset = occupancy
	gen.SetStopTime(4 * sim.Millisecond)
	gen.StartFlow(be)
	gen.StartFlow(ts)
	e.Run()
	if len(tsSent) != 4 {
		t.Fatalf("%d TS frames, want 4", len(tsSent))
	}
	for k, at := range tsSent {
		if want := sim.Time(k)*sim.Millisecond + occupancy; at != want {
			t.Fatalf("TS frame %d on the wire at %v, want %v (the tick instant): txdone ran before the tick", k, at, want)
		}
	}
}
