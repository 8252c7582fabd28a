package testbed

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"reflect"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

// recycleCase is one network of TestRecyclingChangesNothing. Every
// switch s carries a talker, host 100+s, and a listener, host 200+s: no
// NIC both sends and receives, so giving each NIC a pool of its own
// (noReuse) makes a network that never hands a frame out twice — a
// talker's pool gets nothing back, a listener's has minted nothing and
// therefore keeps nothing.
type recycleCase struct {
	name       string
	topo       func() *topology.Topology
	ts, hops   int
	frer       int // the first frer TS flows are 802.1CB-replicated
	background ethernet.Rate
	gptp       bool
	capture    bool
	faults     *faults.Scenario
	partitions int
	multicast  bool
}

// recycleOutcome is everything a run lets an observer see.
type recycleOutcome struct {
	prom, csv, leaks string
	sent             map[uint32]uint64
	pcap             []byte
}

const mcastFlow, mcastFrames = 9000, 150

func (c recycleCase) run(t *testing.T, noReuse bool) recycleOutcome {
	t.Helper()
	topo := c.topo()
	n := topo.N
	for s := 0; s < n; s++ {
		topo.AttachHost(100+s, s)
		topo.AttachHost(200+s, s)
	}
	specs := flows.GenerateTS(flows.TSParams{
		Count: c.ts, Period: sim.Millisecond, WireSize: 64, VID: 1, Seed: 11,
		Hosts: func(i int) (int, int) { return 100 + i%n, 200 + (i%n+c.hops-1)%n },
	})
	for i, s := range specs {
		s.VID = uint16(1 + i)
		if i < c.frer {
			s.FRER, s.AltVID = true, uint16(4001+i)
		}
	}
	if c.background > 0 {
		for k := 0; k < 3; k++ {
			specs = append(specs,
				flows.Background(uint32(100_000+2*k), ethernet.ClassRC, 100+k, 200+(k+c.hops-1)%n, uint16(3000+k), c.background),
				flows.Background(uint32(100_001+2*k), ethernet.ClassBE, 100+k, 200+(k+c.hops-1)%n, uint16(3200+k), c.background))
		}
	}
	if c.multicast {
		topo.AttachHost(300, 0)
	}
	var capture bytes.Buffer
	opts := Options{Seed: 5, Metrics: metrics.New(), EnableGPTP: c.gptp, Faults: c.faults, Partitions: c.partitions}
	if c.capture {
		opts.Pcap = &capture
	}
	net := buildNet(t, topo, specs, opts)

	// What the as-built network draws from, or one pool per NIC.
	var pools []*ethernet.Pool
	for _, p := range net.parts {
		pools = append(pools, &p.frames)
	}
	if noReuse {
		pools = pools[:0]
		for _, nic := range net.NICs {
			pools = append(pools, new(ethernet.Pool))
			nic.SetPool(pools[len(pools)-1])
		}
	}
	if c.multicast {
		c.startGroup(t, net)
	}
	warmup := sim.Time(0)
	if c.gptp {
		warmup = 300 * sim.Millisecond
	}
	net.Run(warmup, 30*sim.Millisecond)

	// The pools' own account: as built, frames came back and went out
	// again; with a pool per NIC every injected frame was minted for it.
	// A FRER flow injects a member-stream replica behind every frame.
	replicated := make(map[uint32]bool)
	for _, s := range specs {
		replicated[s.ID] = s.FRER
	}
	injected, minted := uint64(0), uint64(0)
	for _, nic := range net.NICs {
		for id, sent := range nic.Sent() {
			injected += sent
			if replicated[id] {
				injected += sent
			}
		}
	}
	for _, p := range pools {
		held, m := p.Stats()
		if held > m {
			t.Fatalf("a pool holds %d frames and minted %d", held, m)
		}
		minted += uint64(m)
	}
	if injected < 1000 {
		t.Fatalf("only %d frames injected", injected)
	}
	if noReuse && minted != injected {
		t.Fatalf("the reference network minted %d frames for %d injections: it reused some", minted, injected)
	}
	// As built, a network mints its frames in flight, whatever it injects
	// and whatever its wires lose: 18–58 here (the faulted FRER case
	// minted 355 while a lost frame went to no pool).
	if !noReuse && minted > 64 {
		t.Fatalf("the network as built minted %d frames for %d injections: it does not recycle them all", minted, injected)
	}

	out := recycleOutcome{csv: flowCSV(net), sent: net.SentCounts(), leaks: fmt.Sprint(net.CheckBufferLeaks()), pcap: capture.Bytes()}
	var prom strings.Builder
	if err := net.Metrics.Snapshot().WritePrometheus(&prom); err != nil {
		t.Fatal(err)
	}
	out.prom = prom.String()
	if c.capture {
		c.checkCapture(t, net, out.pcap)
	}
	if c.multicast {
		if st := net.Collector.Flow(mcastFlow); st == nil || st.Received != 2*mcastFrames {
			t.Fatalf("group flow delivered %+v, want %d frames at each of two listeners", st, mcastFrames)
		}
	}
	return out
}

// startGroup makes host 300 on switch 0 a multicast source: switch 0
// replicates group 5 to its own listener and toward switch 1, which
// forwards to its listener. The source's frames are built by hand, so
// no pool minted them; switch 0 draws the two replicas from its part's
// pool and returns the original there, and the listeners return the
// replicas.
func (c recycleCase) startGroup(t *testing.T, net *Net) {
	t.Helper()
	topo := net.opts.Topo
	local, _ := topo.HostAttach(200)
	remote, _ := topo.HostAttach(201)
	trunk, ok := topo.PortToward(0, 1)
	if !ok {
		t.Fatal("no trunk 0->1")
	}
	for sw, mask := range []uint32{1<<local.Port | 1<<trunk.Port, 1 << remote.Port} {
		s := net.Switches[sw]
		if err := s.Resize(tsnswitch.SwitchTbl, [2]int{s.Config().UnicastSize, 1}); err != nil {
			t.Fatal(err)
		}
		if err := s.Forward().Multicast.Add(5, mask); err != nil {
			t.Fatal(err)
		}
	}
	src := net.NICs[300].Ifc()
	for k := 0; k < mcastFrames; k++ {
		seq := uint32(k)
		net.Engine.At(sim.Time(1+k)*100*sim.Microsecond, "group-frame", func(e *sim.Engine) {
			f := &ethernet.Frame{Dst: ethernet.MAC{0x01, 0x00, 0x5e, 0, 0, 5}, Src: ethernet.HostMAC(300), VID: 900,
				EtherType: ethernet.TypeTSN, Payload: make([]byte, 46), FlowID: mcastFlow, Seq: seq, SentAt: e.Now()}
			f.Span.Begin(e.Now())
			src.Transmit(f, nil)
		})
	}
}

// checkCapture reads the capture back: it must hold, flow by flow,
// exactly the frames the listeners accounted for — a tap that saw
// frames only after they were returned would have written cleared ones.
func (c recycleCase) checkCapture(t *testing.T, net *Net, capture []byte) {
	t.Helper()
	r, err := newPcapReader(bytes.NewReader(capture))
	if err != nil {
		t.Fatal(err)
	}
	perFlow := make(map[uint32]uint64)
	for {
		_, f, err := r.next()
		if errors.Is(err, io.EOF) {
			break
		}
		if err != nil {
			t.Fatalf("capture record %d: %v", r.count, err)
		}
		perFlow[f.FlowID]++
	}
	for _, st := range net.Collector.Flows() {
		if got, want := perFlow[st.FlowID], st.Received+st.Duplicates+st.Rogue; got != want {
			t.Fatalf("capture holds %d frames of flow %d, the listeners saw %d", got, st.FlowID, want)
		}
		delete(perFlow, st.FlowID)
	}
	if len(perFlow) != 0 {
		t.Fatalf("capture holds frames of flows nobody received: %v", perFlow)
	}
}

// TestRecyclingChangesNothing runs each network twice — as built, its
// NICs drawing from their part's pool, and with a pool per NIC, which
// never reuses a frame — and requires everything observable to be
// equal: the Prometheus export, the per-flow rows, the sent counts, the
// capture and the buffer-leak verdict.
func TestRecyclingChangesNothing(t *testing.T) {
	sw1, sw2, sw3 := 1, 2, 3
	ring := func() *topology.Topology { return topology.Ring(6) }
	mesh := func() *topology.Topology { return topology.MeshSquarish(16) }
	cases := []recycleCase{
		{name: "ring", topo: ring, ts: 96, hops: 3},
		{name: "ring gptp rc be pcap", topo: ring, ts: 48, hops: 3, background: 150 * ethernet.Mbps, gptp: true, capture: true},
		{name: "bidir-ring frer faults", topo: func() *topology.Topology { return topology.RingBidir(6) }, ts: 48, hops: 4, frer: 16,
			faults: &faults.Scenario{Faults: []faults.Fault{
				{AtUs: 5_000, Kind: faults.KindLinkDown, A: &sw1, B: &sw2},
				{AtUs: 12_000, Kind: faults.KindLinkUp, A: &sw1, B: &sw2},
				{AtUs: 2_000, Kind: faults.KindLinkLoss, A: &sw2, B: &sw3, Prob: 0.25, DurationUs: 8_000},
			}}},
		{name: "ring multicast", topo: ring, ts: 48, hops: 3, multicast: true},
		{name: "mesh 1 partition", topo: mesh, ts: 64, hops: 4, partitions: 1},
		{name: "mesh 2 partitions", topo: mesh, ts: 64, hops: 4, partitions: 2},
		{name: "mesh 3 partitions", topo: mesh, ts: 64, hops: 4, partitions: 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			got, want := c.run(t, false), c.run(t, true)
			if got.prom != want.prom {
				t.Fatalf("Prometheus export differs from the run that never reuses a frame:\n%s", firstDiff(want.prom, got.prom))
			}
			if got.csv != want.csv {
				t.Fatalf("per-flow rows differ:\n%s", firstDiff(want.csv, got.csv))
			}
			if !reflect.DeepEqual(got.sent, want.sent) {
				t.Fatalf("sent counts differ: %v, want %v", got.sent, want.sent)
			}
			if !bytes.Equal(got.pcap, want.pcap) || c.capture == (len(got.pcap) == 0) {
				t.Fatalf("capture differs: %d bytes, want %d", len(got.pcap), len(want.pcap))
			}
			if got.leaks != want.leaks || got.leaks != "<nil>" {
				t.Fatalf("CheckBufferLeaks: %s, without reuse %s", got.leaks, want.leaks)
			}
		})
	}
}

// TestPoolAcrossACutKeepsOnlyWhatItMinted: on a two-partition line
// whose flows all cross the cut the same way, the sending part never
// sees a frame again and the receiving part has minted none — so the
// receiver keeps nothing and the sender mints every frame, as before
// recycling. (Run under -race: the frames change goroutine at the cut.)
func TestPoolAcrossACutKeepsOnlyWhatItMinted(t *testing.T) {
	topo := topology.Linear(4)
	topo.AttachHost(100, 0)
	topo.AttachHost(200, 3)
	specs := flows.GenerateTS(flows.TSParams{
		Count: 32, Period: sim.Millisecond, WireSize: 64, VID: 1, Seed: 3,
		Hosts: func(int) (int, int) { return 100, 200 },
	})
	for i, s := range specs {
		s.VID = uint16(1 + i)
	}
	net := buildNet(t, topo, specs, Options{Seed: 5, Metrics: metrics.New(), Partitions: 2})
	if net.hostPart(100) == net.hostPart(200) {
		t.Fatal("talker and listener share a part")
	}
	net.Run(0, 20*sim.Millisecond)
	sum := net.Summary(ethernet.ClassTS)
	if sum.Received != 32*20 || sum.Received != sum.Sent {
		t.Fatalf("received %d of %d frames, want %d", sum.Received, sum.Sent, 32*20)
	}
	if held, minted := net.hostPart(200).frames.Stats(); held != 0 || minted != 0 {
		t.Fatalf("the receiving part's pool holds %d frames and minted %d, want 0 and 0", held, minted)
	}
	if held, minted := net.hostPart(100).frames.Stats(); held != 0 || uint64(minted) != sum.Sent {
		t.Fatalf("the sending part's pool holds %d frames and minted %d, want 0 and %d", held, minted, sum.Sent)
	}
}
