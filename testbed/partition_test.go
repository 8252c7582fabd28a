package testbed

import (
	"fmt"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// parityParams is a mixed-class workload exercising CQF gating, CBS
// shaping and best-effort background across every switch of a ring —
// the surface the serial-vs-partitioned byte-parity guarantee covers.
var parityParams = workload.Params{
	Topology: "ring",
	Switches: 8,
	TSFlows:  48,
	Hops:     3,
	WireSize: 128,
	SlotUs:   65,
	RCMbps:   40,
	BEMbps:   60,
	Seed:     7,
}

// runParity builds the parity workload with the given partition count,
// runs it for 50 ms and returns the network plus its Prometheus export.
func runParity(t *testing.T, partitions int) (*Net, string) {
	t.Helper()
	return runParityOf(t, parityParams, partitions)
}

// runParityOf is runParity on another workload.
func runParityOf(t *testing.T, params workload.Params, partitions int) (*Net, string) {
	t.Helper()
	w, err := workload.Build(params)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.New()
	net, err := Build(Options{
		Design:     w.Design,
		Topo:       w.Topo,
		Flows:      w.Specs,
		Metrics:    reg,
		Seed:       5,
		Partitions: partitions,
	})
	if err != nil {
		t.Fatal(err)
	}
	net.Run(0, 50*sim.Millisecond)
	var b strings.Builder
	if err := reg.Snapshot().WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	return net, b.String()
}

// normalizeHeapHW blanks the value of the scheduler heap-depth gauge —
// the one metric the partitioned run legitimately differs on (each
// partition heap has its own high water; the merge keeps the maximum,
// the serial run tracks one global heap).
func normalizeHeapHW(t *testing.T, export string) string {
	t.Helper()
	lines := strings.Split(export, "\n")
	found := false
	for i, l := range lines {
		if strings.HasPrefix(l, "tsn_sim_heap_depth_high_water ") {
			lines[i] = "tsn_sim_heap_depth_high_water X"
			found = true
		}
	}
	if !found {
		t.Fatal("export lacks the heap high-water gauge the normalizer expects")
	}
	return strings.Join(lines, "\n")
}

// TestPartitionedParity is the tentpole guarantee: a partitioned run
// exports byte-identical metrics and per-flow statistics to the serial
// run of the same workload.
func TestPartitionedParity(t *testing.T) {
	serial, serialExp := runParity(t, 0)
	if serial.Partitions() != 1 {
		t.Fatalf("serial build reports %d partitions", serial.Partitions())
	}
	for _, parts := range []int{2, 4} {
		par, parExp := runParity(t, parts)
		if got := par.Partitions(); got != parts {
			t.Fatalf("partitioned build reports %d partitions, want %d", got, parts)
		}
		if par.LookaheadWindow() <= 0 {
			t.Fatalf("lookahead window = %v, want positive", par.LookaheadWindow())
		}
		if a, b := normalizeHeapHW(t, serialExp), normalizeHeapHW(t, parExp); a != b {
			t.Fatalf("partitions=%d: Prometheus export differs from serial:\n%s",
				parts, firstDiff(a, b))
		}
		sf, pf := serial.Collector.Flows(), par.Collector.Flows()
		if len(sf) != len(pf) {
			t.Fatalf("partitions=%d: %d flows vs serial %d", parts, len(pf), len(sf))
		}
		for i := range sf {
			if *sf[i] != *pf[i] {
				t.Fatalf("partitions=%d: flow %d stats differ:\nserial      %+v\npartitioned %+v",
					parts, sf[i].FlowID, sf[i], pf[i])
			}
		}
		for _, cls := range []ethernet.Class{ethernet.ClassTS, ethernet.ClassRC, ethernet.ClassBE} {
			if s, p := serial.Summary(cls), par.Summary(cls); s != p {
				t.Fatalf("partitions=%d class %v summary differs:\nserial      %+v\npartitioned %+v",
					parts, cls, s, p)
			}
		}
	}
}

// flowCSV renders the per-flow statistics the way tsnsim -csv does: one
// line per flow, every field.
func flowCSV(n *Net) string {
	var b strings.Builder
	for _, f := range n.Collector.Flows() {
		fmt.Fprintf(&b, "%+v\n", *f)
	}
	return b.String()
}

// TestSerialIsOnePartition pins the serial build as the one-partition
// case of the single builder: Partitions 0 and 1 are the same network —
// byte-equal exports with nothing normalized, one engine driven
// directly, no runner — and only a real sharding gives up the single
// engine and flight recorder.
func TestSerialIsOnePartition(t *testing.T) {
	zero, zeroExp := runParity(t, 0)
	one, oneExp := runParity(t, 1)
	if zeroExp != oneExp {
		t.Fatalf("Partitions 0 and 1 export different metrics:\n%s", firstDiff(zeroExp, oneExp))
	}
	if a, b := flowCSV(zero), flowCSV(one); a != b || a == "" {
		t.Fatalf("Partitions 0 and 1 report different per-flow statistics:\n%s", firstDiff(a, b))
	}
	for _, n := range []*Net{zero, one} {
		if n.Partitions() != 1 || n.LookaheadWindow() != 0 || n.PartitionStats() != nil {
			t.Errorf("serial build: Partitions()=%d LookaheadWindow()=%v PartitionStats()=%v, want 1, 0, nil",
				n.Partitions(), n.LookaheadWindow(), n.PartitionStats())
		}
		if n.Engine == nil || n.Flight == nil {
			t.Errorf("serial build: Engine=%v Flight=%v, want both set", n.Engine, n.Flight)
		}
	}
	two, _ := runParity(t, 2)
	if two.Engine != nil || two.Flight != nil {
		t.Errorf("2-partition build: Engine=%v Flight=%v, want both nil", two.Engine, two.Flight)
	}
}

// firstDiff locates the first differing line of two exports, with a
// little context, so a parity failure is readable.
func firstDiff(a, b string) string {
	al, bl := strings.Split(a, "\n"), strings.Split(b, "\n")
	for i := 0; i < len(al) && i < len(bl); i++ {
		if al[i] != bl[i] {
			return "line " + itoa(i+1) + ":\nserial:      " + al[i] + "\npartitioned: " + bl[i]
		}
	}
	return "exports differ in length: " + itoa(len(al)) + " vs " + itoa(len(bl)) + " lines"
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var d []byte
	for ; n > 0; n /= 10 {
		d = append([]byte{byte('0' + n%10)}, d...)
	}
	return string(d)
}

// TestPartitionedParityMesh repeats the parity check on the mesh grid
// — partitions there are row bands with several cut links apiece, the
// worst case for the mailbox merge order.
func TestPartitionedParityMesh(t *testing.T) {
	params := parityParams
	params.Topology = "mesh"
	params.Switches = 9 // 3x3 grid
	params.TSFlows = 27
	run := func(partitions int) (*Net, string) {
		t.Helper()
		w, err := workload.Build(params)
		if err != nil {
			t.Fatal(err)
		}
		reg := metrics.New()
		net, err := Build(Options{
			Design: w.Design, Topo: w.Topo, Flows: w.Specs,
			Metrics: reg, Seed: 5, Partitions: partitions,
		})
		if err != nil {
			t.Fatal(err)
		}
		net.Run(0, 30*sim.Millisecond)
		var b strings.Builder
		if err := reg.Snapshot().WritePrometheus(&b); err != nil {
			t.Fatal(err)
		}
		return net, b.String()
	}
	serial, serialExp := run(0)
	par, parExp := run(3)
	if a, b := normalizeHeapHW(t, serialExp), normalizeHeapHW(t, parExp); a != b {
		t.Fatalf("mesh export differs from serial:\n%s", firstDiff(a, b))
	}
	if s, p := serial.Summary(ethernet.ClassTS), par.Summary(ethernet.ClassTS); s != p {
		t.Fatalf("mesh TS summary differs:\nserial      %+v\npartitioned %+v", s, p)
	}
	// The runner's own account: mailbox rings are sized from the window
	// bound, so the never-dropping overflow slice must have stayed empty.
	if serial.PartitionStats() != nil {
		t.Fatalf("serial build reports partition stats: %+v", serial.PartitionStats())
	}
	tx := ethernet.TxTime(ethernet.MinFrameBytes, ethernet.Gbps)
	ringCap := int((2*par.LookaheadWindow()+tx-1)/tx) + 1
	var events, posts uint64
	stats := par.PartitionStats()
	for k, ps := range stats {
		if ps.RingHW > ringCap {
			t.Errorf("partition %d: a mailbox held %d messages, ring capacity %d — overflow was used", k, ps.RingHW, ringCap)
		}
		if ps.Windows == 0 || ps.Windows != stats[0].Windows {
			t.Errorf("partition %d stepped %d windows, partition 0 %d", k, ps.Windows, stats[0].Windows)
		}
		events += ps.Events
		posts += ps.Posts
	}
	if want := par.Metrics.CounterValue("tsn_sim_events_total"); events != want || posts == 0 {
		t.Errorf("partition stats count %d events (registry %d) and %d mailbox posts", events, want, posts)
	}
}

// TestPartitionedParityFRER: 802.1CB flows shard like any other — each
// recovery table counts into the part of its listener — and the
// partitioned exports and per-flow statistics equal the serial run's.
func TestPartitionedParityFRER(t *testing.T) {
	params := parityParams
	params.Topology = "bidir-ring"
	params.FRERFlows = 8
	serial, serialExp := runParityOf(t, params, 0)
	if !strings.Contains(serialExp, "tsn_frer_eliminated_total{") || serial.Summary(ethernet.ClassTS).Lost != 0 {
		t.Fatalf("the FRER workload eliminated nothing or lost TS frames:\n%+v", serial.Summary(ethernet.ClassTS))
	}
	for _, parts := range []int{2, 3} {
		par, parExp := runParityOf(t, params, parts)
		if a, b := normalizeHeapHW(t, serialExp), normalizeHeapHW(t, parExp); a != b {
			t.Fatalf("partitions=%d: FRER export differs from serial:\n%s", parts, firstDiff(a, b))
		}
		if a, b := flowCSV(serial), flowCSV(par); a != b {
			t.Fatalf("partitions=%d: FRER per-flow statistics differ:\n%s", parts, firstDiff(a, b))
		}
	}
}

// TestPartitionedRunIsDeterministic pins run-to-run byte identity of a
// partitioned run against itself — goroutine scheduling must never leak
// into results.
func TestPartitionedRunIsDeterministic(t *testing.T) {
	na, a := runParity(t, 4)
	nb, b := runParity(t, 4)
	if a != b {
		t.Fatalf("two identical partitioned runs diverge:\n%s", firstDiff(a, b))
	}
	if wa, wb := na.PartitionStats()[0].Windows, nb.PartitionStats()[0].Windows; wa != wb {
		t.Fatalf("window count differs run to run: %d vs %d", wa, wb)
	}
}

// TestPartitionedRejections enumerates the features a partitioned
// build must refuse, each of which would couple partitions outside the
// frame channel.
func TestPartitionedRejections(t *testing.T) {
	w, err := workload.Build(parityParams)
	if err != nil {
		t.Fatal(err)
	}
	base := Options{Design: w.Design, Topo: w.Topo, Flows: w.Specs, Partitions: 2}

	cases := []struct {
		name string
		mut  func(*Options)
	}{
		{"gptp", func(o *Options) { o.EnableGPTP = true }},
		{"faults", func(o *Options) { o.Faults = &faults.Scenario{} }},
		{"watchdog", func(o *Options) { o.EnableWatchdog = true }},
		{"trace", func(o *Options) { o.EnableTrace = true }},
		{"pcap", func(o *Options) { o.Pcap = &strings.Builder{} }},
	}
	for _, tc := range cases {
		opts := base
		tc.mut(&opts)
		if _, err := Build(opts); err == nil {
			t.Errorf("%s: partitioned build accepted an unshardable feature", tc.name)
		}
	}

	// Live reconfiguration, flow addition and the telemetry server are
	// rejected at call time.
	net, _ := runParity(t, 2)
	if _, err := net.Reconfigure(net.LiveConfig()); err == nil {
		t.Error("Reconfigure succeeded on a partitioned network")
	}
	if err := net.AddFlows(nil, 0); err == nil {
		t.Error("AddFlows succeeded on a partitioned network")
	}
	if srv, _, err := net.Serve("127.0.0.1:0"); err == nil || srv != nil || net.Server != nil {
		t.Errorf("Serve on a partitioned network = %v, %v; server %v", srv, err, net.Server)
	}
}

// TestPartitionsClampToTopology asks for more partitions than switches
// and expects a working (clamped) build, plus the degenerate one-switch
// case collapsing to a serial network.
func TestPartitionsClampToTopology(t *testing.T) {
	w, err := workload.Build(parityParams)
	if err != nil {
		t.Fatal(err)
	}
	net, err := Build(Options{Design: w.Design, Topo: w.Topo, Flows: w.Specs, Partitions: 64})
	if err != nil {
		t.Fatal(err)
	}
	if got := net.Partitions(); got != parityParams.Switches {
		t.Fatalf("Partitions() = %d, want clamp to %d switches", got, parityParams.Switches)
	}
	net.Run(0, 5*sim.Millisecond)
	if s := net.Summary(ethernet.ClassTS); s.Received == 0 {
		t.Fatal("clamped partitioned run delivered nothing")
	}
}
