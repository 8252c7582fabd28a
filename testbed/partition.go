// Parts: the engines a network runs on (internal/psim when there is
// more than one).
//
// Build shards every network into parts; the serial build is the
// one-partition case. Its single part aliases the Net's own registry,
// collector, flight recorder and attribution layer, so nothing is
// allocated twice, nothing merges, and Run drives the engine directly.
// A scratch part — what a part is when there are several — differs only
// in owning its registry, collector, recorder and attribution, so the
// hot path stays exactly as unsynchronized as the serial simulator's.
// Trunk cables cut by the sharding are rerouted through bounded
// mailboxes (netdev.SetRemotePost) and the parts advance in barrier-
// stepped lookahead windows. After the run the scratch state merges
// back. Registry exports sort and every fold (sum, max, earliest worst
// exemplar) commutes, so the merged registry exports byte-identical to
// the one-part run's whatever the assignment and merge order (the
// scheduler heap-depth gauge excepted: per-partition heaps have their
// own high waters; see DESIGN.md §16).
package testbed

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/analyzer"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/obs"
	"github.com/tsnbuilder/tsnbuilder/internal/psim"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/trace"
)

// part is one shard of a network: an engine plus the observability
// state its switches and NICs write into.
type part struct {
	engine *sim.Engine
	reg    *metrics.Registry   // nil when Options.Metrics is nil
	coll   *analyzer.Collector // the part's receive-side stats
	flight *trace.Flight
	attr   *obs.Attribution // nil when Options.Metrics is nil
	ps     *psim.Partition  // nil in a one-part network
	frames ethernet.Pool    // shared by the part's NICs and switches: a frame ends elsewhere than it began
}

// newPart starts an engine recording into the given registry, collector
// and flight recorder, and resolves the part's engine, collector and
// attribution instruments.
func newPart(reg *metrics.Registry, coll *analyzer.Collector, flight *trace.Flight) *part {
	p := &part{engine: sim.NewEngine(), reg: reg, coll: coll, flight: flight}
	if reg != nil {
		p.engine.Instrument(
			reg.Counters("tsn_sim_events_total", "discrete events executed"),
			reg.Gauges("tsn_sim_heap_depth_high_water", "worst-case scheduler heap depth").With(),
		)
		coll.Instrument(reg)
		p.attr = obs.NewAttribution(reg, flight)
		coll.SetLatencySink(p.attr)
	}
	return p
}

// shard creates the network's parts and assigns every switch to one.
// One part records straight into the Net's own state and is reachable
// as n.Engine; several parts each own scratch state that mergeResults
// folds into the Net's after the run, and n.Engine and n.Flight stay
// nil because no single engine or recorder speaks for the network.
func (n *Net) shard(count int) {
	n.assign = psim.Assign(n.opts.Topo, count)
	if count == 1 {
		n.Flight = trace.NewFlight(n.opts.flightCapacity())
		one := newPart(n.Metrics, n.Collector, n.Flight)
		n.Engine, n.Attr = one.engine, one.attr
		n.parts = []*part{one}
		return
	}
	for k := 0; k < count; k++ {
		var reg *metrics.Registry
		if n.Metrics != nil {
			reg = metrics.New()
		}
		p := newPart(reg, analyzer.NewCollector(), trace.NewFlight(n.opts.flightCapacity()))
		p.ps = psim.NewPartition(p.engine)
		n.parts = append(n.parts, p)
	}
	if n.Metrics != nil {
		// The merge target for the parts' dumps; the histograms live in
		// the part registries (nil here).
		n.Attr = obs.NewAttribution(nil, nil)
	}
}

// cutLink reroutes the from→to direction of a trunk cable whose ends
// are in different parts through a mailbox, registered as an inbox of
// rx (the part that owns to) — in TrunkLinks order, A→B then B→A, so
// drain order is deterministic. The ring holds what one direction can
// launch between drains: a window spans under 2W (Runner.RunUntil), W is
// at most this cable's own lookahead, and launches are a minimum frame
// time apart.
func cutLink(from, to *netdev.Ifc, rx *part, prop sim.Time) psim.CutLink {
	cut := psim.CutLink{Prop: prop, Rate: from.Rate()}
	tx := ethernet.TxTime(ethernet.MinFrameBytes, cut.Rate)
	m := psim.NewMailbox(int((2*psim.Lookahead([]psim.CutLink{cut})+tx-1)/tx) + 1)
	rx.ps.AddInbox(m)
	from.SetRemotePost(func(f *ethernet.Frame, at, wire sim.Time) {
		m.Post(psim.Message{To: to, Frame: f, At: at, Wire: wire})
	})
	return cut
}

// switchPart returns the part that owns switch sw.
func (n *Net) switchPart(sw int) *part { return n.parts[n.assign[sw]] }

// hostPart returns the part host's NIC lives on: the one that owns the
// switch it attaches to.
func (n *Net) hostPart(host int) *part {
	at, _ := n.opts.Topo.HostAttach(host)
	return n.switchPart(at.Switch)
}

// Partitions reports how many engines the network runs on (1 for a
// serial build).
func (n *Net) Partitions() int { return len(n.parts) }

// LookaheadWindow returns the conservative window a partitioned run
// steps by (psim.Unbounded with no cut links); 0 on serial builds.
func (n *Net) LookaheadWindow() sim.Time {
	if n.runner == nil {
		return 0
	}
	return n.runner.Window()
}

// PartitionStats returns the runner's per-partition account of the run
// (nil on serial builds). It is deliberately not in the registry: the
// merged export must equal the serial one byte for byte.
func (n *Net) PartitionStats() []psim.PartStats {
	if n.runner == nil {
		return nil
	}
	return n.runner.Stats()
}

// assignDeliverPrios stamps every interface's stable global index as
// its delivery tie-break priority: switch ports in (switch, port)
// order, then NICs in sorted host order, 1-based (0 means unset).
// Same-instant delivery order is therefore interface order however the
// network is sharded — the property that makes the partitioned schedule
// equal the serial one (see internal/psim).
func (n *Net) assignDeliverPrios() {
	idx := uint64(0)
	for s, sw := range n.Switches {
		for p := 0; p < n.opts.Topo.PortCount(s); p++ {
			idx++
			sw.Ifc(p).SetDeliverPrio(idx)
		}
	}
	for _, h := range n.opts.Topo.Hosts() {
		idx++
		n.NICs[h].Ifc().SetDeliverPrio(idx)
	}
}

// validatePartitioned rejects options that would couple partitions
// outside the frame channel (shared mutable state or cross-partition
// event scheduling), each with the reason it cannot be sharded.
func validatePartitioned(opts Options) error {
	switch {
	case opts.EnableGPTP:
		return fmt.Errorf("testbed: partitioned runs require perfect clocks (gPTP sync spans do not respect the lookahead window)")
	case opts.Faults != nil:
		return fmt.Errorf("testbed: fault injection is not supported in partitioned runs (an injector event would mutate interfaces owned by other partitions)")
	case opts.EnableWatchdog:
		return fmt.Errorf("testbed: the invariant watchdog is not supported in partitioned runs (audits read every switch from one engine)")
	case opts.EnableTrace:
		return fmt.Errorf("testbed: packet tracing is not supported in partitioned runs (the recorder is shared across switches)")
	case opts.Pcap != nil:
		return fmt.Errorf("testbed: pcap capture is not supported in partitioned runs (the writer is shared across NICs)")
	}
	return nil
}

// mergeResults folds every part's scratch state into the Net's, in
// ascending partition order. The registry merge does not depend on
// that order (exports sort); the collector and attribution merges
// still run in it.
func (n *Net) mergeResults() {
	n.merged = true
	for _, p := range n.parts {
		if n.Metrics != nil {
			n.Metrics.Merge(p.reg)
		}
		n.Collector.Merge(p.coll)
		if n.Attr != nil {
			n.Attr.Merge(p.attr)
		}
	}
}
