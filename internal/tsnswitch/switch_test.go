package tsnswitch

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tables"
)

// host is a minimal end station with a FIFO MAC: transmits on demand,
// records arrivals.
type host struct {
	engine   *sim.Engine
	ifc      *netdev.Ifc
	got      []*ethernet.Frame
	arrivals []sim.Time
	pending  []*ethernet.Frame
	sending  bool
}

func newHost(e *sim.Engine, name string) *host {
	h := &host{engine: e}
	h.ifc = netdev.NewIfc(e, name, h, ethernet.Gbps)
	return h
}

func (h *host) Receive(f *ethernet.Frame, on *netdev.Ifc) {
	h.got = append(h.got, f)
	h.arrivals = append(h.arrivals, h.engine.Now())
}

func (h *host) drain() {
	if h.sending || len(h.pending) == 0 {
		return
	}
	f := h.pending[0]
	h.pending = h.pending[1:]
	h.sending = true
	h.ifc.Transmit(f, func() {
		h.sending = false
		h.drain()
	})
}

// sendAt schedules a frame transmission at the given instant; frames
// queue in the host MAC if the wire is busy.
func (h *host) sendAt(at sim.Time, f *ethernet.Frame) {
	h.engine.At(at, "host-send", func(*sim.Engine) {
		h.pending = append(h.pending, f)
		h.drain()
	})
}

func testConfig() Config {
	return Config{
		ID:             0,
		Ports:          2,
		QueuesPerPort:  8,
		QueueDepth:     8,
		BuffersPerPort: 96,
		UnicastSize:    64,
		MulticastSize:  8,
		ClassSize:      64,
		MeterSize:      16,
		GateSize:       2,
		CBSMapSize:     3,
		CBSSize:        3,
		SlotSize:       65 * sim.Microsecond,
		TSQueueA:       7,
		TSQueueB:       6,
		LinkRate:       ethernet.Gbps,
	}
}

// rig is one switch with a host on each port.
type rig struct {
	engine *sim.Engine
	sw     *Switch
	hosts  []*host
}

func newRig(t *testing.T, cfg Config) *rig {
	t.Helper()
	e := sim.NewEngine()
	sw := New(e, cfg)
	r := &rig{engine: e, sw: sw}
	for p := 0; p < cfg.Ports; p++ {
		h := newHost(e, "h"+string(rune('0'+p)))
		netdev.Connect(sw.Ifc(p), h.ifc, 100*sim.Nanosecond)
		r.hosts = append(r.hosts, h)
		// Route HostMAC(p) out of port p.
		if err := sw.Forward().Unicast.Add(ethernet.HostMAC(p), 1, p); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// tsFrame builds a TS frame destined to host dst.
func tsFrame(dst int, seq uint32) *ethernet.Frame {
	return &ethernet.Frame{
		Dst: ethernet.HostMAC(dst), Src: ethernet.HostMAC(99),
		VID: 1, PCP: 7, EtherType: ethernet.TypeTSN,
		Class: ethernet.ClassTS, FlowID: 1, Seq: seq,
		Payload: make([]byte, 46),
	}
}

func TestForwardBasic(t *testing.T) {
	r := newRig(t, testConfig())
	r.hosts[0].sendAt(0, tsFrame(1, 1))
	r.engine.RunUntil(sim.Second)
	if len(r.hosts[1].got) != 1 {
		t.Fatalf("host1 received %d frames, want 1", len(r.hosts[1].got))
	}
	st := r.sw.Stats()
	if st.RxFrames != 1 || st.TxFrames != 1 || st.TotalDrops() != 0 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestNoRouteDrop(t *testing.T) {
	r := newRig(t, testConfig())
	f := tsFrame(1, 1)
	f.Dst = ethernet.HostMAC(55) // not installed
	r.hosts[0].sendAt(0, f)
	r.engine.RunUntil(sim.Second)
	if got := r.sw.Stats().Drops[DropNoRoute]; got != 1 {
		t.Fatalf("no-route drops = %d", got)
	}
}

func TestCQFLatencyBounds(t *testing.T) {
	// Eq. (1): for a single switch (hop = 1), end-to-end latency lies
	// in [(hop-1)·slot, (hop+1)·slot] = [0, 130 µs].
	cfg := testConfig()
	r := newRig(t, cfg)
	const n = 50
	for i := 0; i < n; i++ {
		f := tsFrame(1, uint32(i))
		at := sim.Time(i) * 123 * sim.Microsecond // arbitrary phases
		f.SentAt = at
		r.hosts[0].sendAt(at, f)
	}
	r.engine.RunUntil(sim.Second)
	if len(r.hosts[1].got) != n {
		t.Fatalf("received %d, want %d (drops: %+v)", len(r.hosts[1].got), n, r.sw.Stats().Drops)
	}
	for i, f := range r.hosts[1].got {
		lat := r.hosts[1].arrivals[i] - f.SentAt
		if lat < 0 || lat > 2*cfg.SlotSize {
			t.Fatalf("frame %d latency %v outside [0, %v]", i, lat, 2*cfg.SlotSize)
		}
	}
}

func TestCQFNextSlotForwarding(t *testing.T) {
	// A TS frame received in slot s must leave in slot s+1: its
	// departure time falls inside the following slot.
	cfg := testConfig()
	r := newRig(t, cfg)
	f := tsFrame(1, 1)
	at := 10 * sim.Microsecond // mid slot 0
	f.SentAt = at
	r.hosts[0].sendAt(at, f)
	r.engine.RunUntil(sim.Second)
	if len(r.hosts[1].got) != 1 {
		t.Fatal("frame lost")
	}
	arrive := r.hosts[1].arrivals[0]
	// Frame entered queue in slot 0, so it must depart within slot 1:
	// arrival ∈ (65 µs, 130 µs + wire time].
	if arrive <= cfg.SlotSize || arrive > 2*cfg.SlotSize {
		t.Fatalf("arrival %v not in slot 1", arrive)
	}
}

func TestBEForwardedImmediately(t *testing.T) {
	// Best-effort frames are not gated: they leave as soon as the port
	// is free, far sooner than a slot.
	r := newRig(t, testConfig())
	f := tsFrame(1, 1)
	f.PCP = 0
	f.Class = ethernet.ClassBE
	r.hosts[0].sendAt(0, f)
	r.engine.RunUntil(sim.Second)
	if len(r.hosts[1].got) != 1 {
		t.Fatal("BE frame lost")
	}
	if r.hosts[1].arrivals[0] > 5*sim.Microsecond {
		t.Fatalf("BE arrival %v, want < 5µs", r.hosts[1].arrivals[0])
	}
}

func TestQueueFullDrop(t *testing.T) {
	cfg := testConfig()
	cfg.QueueDepth = 2
	r := newRig(t, cfg)
	// Inject 5 TS frames back-to-back within one slot; queue depth 2
	// forces drops (some may land in the alternate queue after slot
	// rotation, so just require at least one drop).
	for i := 0; i < 5; i++ {
		r.hosts[0].sendAt(sim.Time(i)*sim.Microsecond, tsFrame(1, uint32(i)))
	}
	r.engine.RunUntil(sim.Second)
	if got := r.sw.Stats().Drops[DropQueueFull]; got == 0 {
		t.Fatal("expected queue-full drops")
	}
}

func TestBufferExhaustionDrop(t *testing.T) {
	cfg := testConfig()
	cfg.BuffersPerPort = 1
	cfg.QueueDepth = 8
	r := newRig(t, cfg)
	for i := 0; i < 4; i++ {
		r.hosts[0].sendAt(sim.Time(i)*sim.Microsecond, tsFrame(1, uint32(i)))
	}
	r.engine.RunUntil(sim.Second)
	if got := r.sw.Stats().Drops[DropBufferFull]; got == 0 {
		t.Fatal("expected buffer-full drops")
	}
}

func TestStrictPriorityTSOverBE(t *testing.T) {
	// Saturate with BE, then inject TS: TS must not queue behind the
	// BE backlog.
	cfg := testConfig()
	r := newRig(t, cfg)
	// 20 BE frames of 1024B back-to-back starting at t=0 (the ingress
	// link is 1 Gbps, so they arrive over ~170 µs).
	for i := 0; i < 20; i++ {
		f := tsFrame(1, uint32(i))
		f.PCP = 0
		f.Class = ethernet.ClassBE
		f.FlowID = 2
		f.Payload = make([]byte, 1002) // 1024B wire
		r.hosts[0].sendAt(sim.Time(i)*9*sim.Microsecond, f)
	}
	ts := tsFrame(1, 100)
	ts.SentAt = 30 * sim.Microsecond
	r.hosts[0].sendAt(30*sim.Microsecond, ts)
	r.engine.RunUntil(sim.Second)
	var tsLat sim.Time = -1
	for i, f := range r.hosts[1].got {
		if f.FlowID == 1 {
			tsLat = r.hosts[1].arrivals[i] - f.SentAt
		}
	}
	if tsLat < 0 {
		t.Fatal("TS frame lost")
	}
	if tsLat > 2*cfg.SlotSize {
		t.Fatalf("TS latency %v exceeded CQF bound under BE load", tsLat)
	}
}

func TestMeterDropsAtSwitch(t *testing.T) {
	r := newRig(t, testConfig())
	// Classify flow 3 into queue 4 with a tight meter.
	key := tables.ClassKey{
		Src: ethernet.HostMAC(99), Dst: ethernet.HostMAC(1), VID: 1, PRI: 2,
	}
	if err := r.sw.Filter().Class.Add(key, tables.ClassEntry{QueueID: 4, MeterID: 0, HasMeter: true}); err != nil {
		t.Fatal(err)
	}
	if err := r.sw.Filter().Meters.Configure(0, ethernet.Mbps, 64); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		f := tsFrame(1, uint32(i))
		f.PCP = 2
		f.Class = ethernet.ClassRC
		f.Payload = make([]byte, 40) // 64B on wire = exactly one burst
		r.hosts[0].sendAt(sim.Time(i)*sim.Microsecond, f)
	}
	r.engine.RunUntil(sim.Second)
	if got := r.sw.Stats().Drops[DropMeter]; got != 2 {
		t.Fatalf("meter drops = %d, want 2", got)
	}
}

func TestMulticastReplication(t *testing.T) {
	r := newRig(t, testConfig())
	grp := ethernet.MAC{0x01, 0x00, 0x5e, 0, 0, 5} // multicast group 5
	if err := r.sw.Forward().Multicast.Add(uint16(5), 0b11); err != nil {
		t.Fatal(err)
	}
	f := tsFrame(0, 1)
	f.Dst = grp
	f.PCP = 0
	r.hosts[0].sendAt(0, f)
	r.engine.RunUntil(sim.Second)
	if len(r.hosts[0].got) != 1 || len(r.hosts[1].got) != 1 {
		t.Fatalf("replication = %d,%d, want 1,1", len(r.hosts[0].got), len(r.hosts[1].got))
	}
}

func TestHighWaterTracking(t *testing.T) {
	r := newRig(t, testConfig())
	for i := 0; i < 4; i++ {
		r.hosts[0].sendAt(sim.Time(i)*sim.Microsecond, tsFrame(1, uint32(i)))
	}
	r.engine.RunUntil(sim.Second)
	hw := r.sw.QueueHighWater(1, 7) + r.sw.QueueHighWater(1, 6)
	if hw == 0 {
		t.Fatal("queue high water not tracked")
	}
	if r.sw.Port(1).Pool().HighWater() == 0 {
		t.Fatal("pool high water not tracked")
	}
}

func TestInvalidConfig(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.Ports = 0 },
		func(c *Config) { c.QueuesPerPort = 0 },
		func(c *Config) { c.QueueDepth = 0 },
		func(c *Config) { c.BuffersPerPort = 0 },
		func(c *Config) { c.GateSize = 1 },
		func(c *Config) { c.SlotSize = 0 },
		func(c *Config) { c.TSQueueB = 7 },
		func(c *Config) { c.TSQueueA = 12 },
		func(c *Config) { c.LinkRate = 0 },
		func(c *Config) { c.UnicastSize = -1 },
		func(c *Config) { c.CBSSize = -1 },
	}
	for i, mutate := range bad {
		cfg := testConfig()
		mutate(&cfg)
		if err := cfg.Validate(); err == nil {
			t.Errorf("case %d: invalid config validated", i)
		}
	}
	good := testConfig()
	if err := good.Validate(); err != nil {
		t.Errorf("valid config rejected: %v", err)
	}
}

func TestDropReasonStrings(t *testing.T) {
	for r := DropReason(0); r < dropReasonCount; r++ {
		if r.String() == "" {
			t.Fatal("empty drop reason name")
		}
	}
	if DropReason(99).String() != "DropReason(99)" {
		t.Fatal("unknown reason formatting")
	}
}

// TestDroppedAndReplicatedFramesReturnToThePool: a switch carries a
// frame no further when it drops it or replicates it, and returns it to
// the engine's pool then; the replicas come from that pool too. So a
// network whose switches drop or replicate mints no more frames than
// are in flight.
func TestDroppedAndReplicatedFramesReturnToThePool(t *testing.T) {
	cfg := testConfig()
	cfg.Ports = 3
	r := newRig(t, cfg)
	var pool ethernet.Pool
	r.sw.SetPool(&pool)
	if err := r.sw.Forward().Multicast.Add(5, 1<<1|1<<2); err != nil {
		t.Fatal(err)
	}
	lost := pool.Get()
	*lost = *tsFrame(1, 1)
	lost.Dst = ethernet.HostMAC(55) // no route
	group := pool.Get()
	*group = *tsFrame(1, 2)
	group.Dst = ethernet.MAC{0x01, 0x00, 0x5e, 0, 0, 5}
	r.hosts[0].sendAt(0, group)
	r.hosts[0].sendAt(sim.Millisecond, lost) // after the replicas are out
	r.engine.RunUntil(sim.Second)
	if len(r.hosts[1].got) != 1 || len(r.hosts[2].got) != 1 || r.hosts[1].got[0] == r.hosts[2].got[0] {
		t.Fatalf("hosts 1 and 2 received %d and %d frames, want one replica each", len(r.hosts[1].got), len(r.hosts[2].got))
	}
	if got := r.hosts[2].got[0]; got.Seq != 2 || got == group {
		t.Fatalf("host 2 received %+v, want a replica of seq 2", *got)
	}
	// The dropped frame and the replicated original are back (cleared);
	// the two replicas are out at the hosts.
	if held, minted := pool.Stats(); held != 2 || minted != 4 {
		t.Fatalf("pool holds %d frames and minted %d, want 2 and 4", held, minted)
	}
	if lost.Seq != 0 || group.Seq != 0 {
		t.Fatal("a returned frame was not cleared")
	}
}
