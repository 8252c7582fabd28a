// Partitioned builds: the testbed sharded across engines for the
// conservative parallel simulation layer (internal/psim).
//
// The build mirrors the serial Build step for step, but each partition
// gets its own engine, scratch metrics registry, collector, flight
// recorder and attribution layer, so the hot path stays exactly as
// unsynchronized as the serial simulator's. Cross-partition trunk
// cables are rerouted through bounded mailboxes (netdev.SetRemotePost)
// and the partitions advance in barrier-stepped lookahead windows.
// After the run the scratch state merges back — in ascending partition
// order, which together with psim.Assign's ascending-ID blocks makes
// the merged registry byte-identical to a serial run's (the scheduler
// heap-depth gauge excepted: per-partition heaps have their own high
// waters; see DESIGN.md §16).
package testbed

import (
	"fmt"
	"sort"

	"github.com/tsnbuilder/tsnbuilder/internal/analyzer"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/frer"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/obs"
	"github.com/tsnbuilder/tsnbuilder/internal/psim"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/internal/trace"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnnic"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

// part is one shard of a partitioned network: an engine plus the
// scratch observability state its switches and NICs write into.
type part struct {
	engine *sim.Engine
	reg    *metrics.Registry   // nil when Options.Metrics is nil
	coll   *analyzer.Collector // the partition's receive-side stats
	flight *trace.Flight
	attr   *obs.Attribution // nil when Options.Metrics is nil
	ps     *psim.Partition
}

// regFor returns the registry instruments of switch sw resolve
// against: the partition's scratch registry, or the shared one on
// serial builds. May be nil (uninstrumented).
func (n *Net) regFor(sw int) *metrics.Registry {
	if n.parts == nil {
		return n.Metrics
	}
	return n.parts[n.assign[sw]].reg
}

// collectorFor returns the collector that receives host's deliveries:
// the partition's scratch collector, or the shared one on serial
// builds.
func (n *Net) collectorFor(host int) *analyzer.Collector {
	if n.parts == nil {
		return n.Collector
	}
	return n.parts[n.hostPart[host]].coll
}

// Partitions reports how many engines the network runs on (1 for a
// serial build).
func (n *Net) Partitions() int {
	if n.parts == nil {
		return 1
	}
	return len(n.parts)
}

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
// Serial and partitioned builds both use it, so same-instant delivery
// order is interface order in both — the property that makes the
// partitioned schedule equal the serial one (see internal/psim).
func (n *Net) assignDeliverPrios() {
	idx := uint64(0)
	for s, sw := range n.Switches {
		for p := 0; p < n.opts.Topo.PortCount(s); p++ {
			idx++
			sw.Ifc(p).SetDeliverPrio(idx)
		}
	}
	for _, h := range sortedHosts(n.opts.Topo) {
		idx++
		n.NICs[h].Ifc().SetDeliverPrio(idx)
	}
}

// sortedHosts returns the attached host IDs in ascending order
// (topology.Hosts is map-ordered).
func sortedHosts(t *topology.Topology) []int {
	hosts := append([]int(nil), t.Hosts()...)
	sort.Ints(hosts)
	return hosts
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
	for _, spec := range opts.Flows {
		if spec.FRER {
			return fmt.Errorf("testbed: FRER flow %d is not supported in partitioned runs (recovery-table instruments register in flow-encounter order, which interleaves partitions)", spec.ID)
		}
	}
	return nil
}

// buildPartitioned is Build for Options.Partitions > 1. It must mirror
// the serial build's registration sequence exactly — every instrument
// the serial path resolves against the shared registry resolves here
// against its partition's scratch registry, in the same order — so the
// post-run merge reproduces the serial export byte for byte.
func buildPartitioned(opts Options) (*Net, error) {
	if err := validatePartitioned(opts); err != nil {
		return nil, err
	}
	eff := opts.Partitions
	if eff > opts.Topo.N {
		eff = opts.Topo.N
	}
	if eff < 2 {
		// A one-switch topology collapses to one partition: build the
		// ordinary serial network.
		opts.Partitions = 0
		return Build(opts)
	}
	assign := psim.Assign(opts.Topo, eff)

	n := &Net{
		NICs:      make(map[int]*tsnnic.NIC),
		Collector: analyzer.NewCollector(),
		Health:    &obs.Health{},
		Metrics:   opts.Metrics,
		assign:    assign,
		hostPart:  make(map[int]int),
		opts:      opts,
		specs:     opts.Flows,
		liveCfg:   opts.Design.Config,
		recovery:  make(map[int]*frer.Table),
		prog: progState{
			reserved: make(map[pq]ethernet.Rate),
			nextCBS:  make(map[bankKey]int),
			cbsID:    make(map[pq]int),
		},
	}

	// Per-partition engines and scratch observability state, in the
	// serial build's registration order.
	psParts := make([]*psim.Partition, eff)
	for k := 0; k < eff; k++ {
		p := &part{
			engine: sim.NewEngine(),
			coll:   analyzer.NewCollector(),
			flight: trace.NewFlight(flightCapacity),
		}
		if opts.Metrics != nil {
			p.reg = metrics.New()
			p.reg.Help("tsn_sim_events_total", "discrete events executed")
			p.reg.Help("tsn_sim_heap_depth_high_water", "worst-case scheduler heap depth")
			p.engine.Instrument(
				p.reg.Counter("tsn_sim_events_total"),
				p.reg.Gauge("tsn_sim_heap_depth_high_water"),
			)
			p.coll.Instrument(p.reg)
			p.attr = obs.NewAttribution(p.reg, p.flight)
			p.coll.SetLatencySink(p.attr)
		}
		p.ps = psim.NewPartition(p.engine)
		n.parts = append(n.parts, p)
		psParts[k] = p.ps
	}
	if opts.Metrics != nil {
		// The merge target for per-flow attribution aggregates; its
		// histograms live in the partition registries (nil here).
		n.Attr = obs.NewAttribution(nil, nil)
	}

	// Access ports run at AccessRate when configured (same as serial).
	accessPorts := make(map[topology.Attach]bool)
	if opts.AccessRate > 0 {
		for _, h := range opts.Topo.Hosts() {
			at, _ := opts.Topo.HostAttach(h)
			accessPorts[at] = true
		}
	}

	// Switches, one per topology node, each on its partition's engine.
	// The ascending-ID loop plus ascending-ID partition blocks keep
	// every partition registry's per-switch samples in the serial
	// registration order.
	for s := 0; s < opts.Topo.N; s++ {
		p := n.parts[assign[s]]
		cfg := opts.Design.SwitchConfig(s, opts.Topo.PortCount(s))
		cfg.SharedBufferNum = opts.SharedBufferNum
		cfg.Metrics = p.reg
		if cfg.EnablePreemption {
			return nil, fmt.Errorf("testbed: frame preemption is not supported in partitioned runs (an abort cannot cancel a delivery already mailed to another partition)")
		}
		if opts.AccessRate > 0 {
			cfg.PortRates = make([]ethernet.Rate, cfg.Ports)
			for pt := 0; pt < cfg.Ports; pt++ {
				if accessPorts[topology.Attach{Switch: s, Port: pt}] {
					cfg.PortRates[pt] = opts.AccessRate
				}
			}
		}
		sw := tsnswitch.New(p.engine, cfg)
		sw.Flight = p.flight
		n.Switches = append(n.Switches, sw)
	}

	// Trunk cables. Same-partition links behave exactly as serial;
	// cut links additionally reroute their deliveries through a
	// mailbox per direction, registered as the receiving partition's
	// inbox in TrunkLinks order (A→B then B→A) so drain order is
	// deterministic. A ring holds what one direction can launch between
	// drains: a window spans under 2W (Runner.RunUntil), W is at most this
	// cable's own lookahead, and launches are a minimum frame time apart.
	var cuts []psim.CutLink
	for _, l := range opts.Topo.TrunkLinks() {
		a := n.Switches[l.A.Switch].Ifc(l.A.Port)
		b := n.Switches[l.B.Switch].Ifc(l.B.Port)
		netdev.Connect(a, b, opts.CableDelay)
		if assign[l.A.Switch] == assign[l.B.Switch] {
			continue
		}
		for _, dir := range []struct {
			from, to *netdev.Ifc
			rxPart   int
		}{
			{a, b, assign[l.B.Switch]},
			{b, a, assign[l.A.Switch]},
		} {
			cut := psim.CutLink{Prop: opts.CableDelay, Rate: dir.from.Rate()}
			tx := ethernet.TxTime(ethernet.MinFrameBytes, cut.Rate)
			m := psim.NewMailbox(int((2*psim.Lookahead([]psim.CutLink{cut})+tx-1)/tx) + 1)
			n.parts[dir.rxPart].ps.AddInbox(m)
			rx := dir.to
			dir.from.SetRemotePost(func(f *ethernet.Frame, at, wire sim.Time) {
				m.Post(psim.Message{To: rx, Frame: f, At: at, Wire: wire})
			})
			cuts = append(cuts, cut)
		}
	}
	n.runner = psim.NewRunner(psParts, psim.Lookahead(cuts))

	// End stations: each NIC lives on (and records into) the partition
	// of the switch it attaches to. NIC↔switch cables are never cut.
	for _, h := range sortedHosts(opts.Topo) {
		at, _ := opts.Topo.HostAttach(h)
		pk := assign[at.Switch]
		n.hostPart[h] = pk
		nicRate := opts.Design.Config.LinkRate
		if opts.AccessRate > 0 {
			nicRate = opts.AccessRate
		}
		nic := tsnnic.New(n.parts[pk].engine, h, nicRate, n.parts[pk].coll)
		netdev.Connect(nic.Ifc(), n.Switches[at.Switch].Ifc(at.Port), opts.CableDelay)
		n.NICs[h] = nic
	}
	n.assignDeliverPrios()

	if err := n.program(); err != nil {
		return nil, err
	}

	// Family-order parity: the serial run registers the CBS stall
	// family (during applyCBS) before the reconfiguration families.
	// applyCBS only touched the partitions that own RC cells; if
	// partition 0 owns none, its registry — which leads the merge and
	// therefore dictates family order — would place the reconfig
	// families first. Pre-registering the family here (a no-op when
	// partition 0 already has it) pins the serial order.
	if opts.Metrics != nil && !opts.DisableCBS && len(n.prog.cbsID) > 0 {
		n.parts[0].reg.Help(cbsStallsName, cbsStallsHelp)
	}

	// The reconfiguration controller registers its metric families at
	// construction; partition 0's registry keeps them in the serial
	// position. Live reconfiguration itself is rejected in partitioned
	// runs (Net.Reconfigure), so the controller only ever exports
	// zero-valued counters — exactly like a serial run that never
	// reconfigures.
	n.Reconfig = reconfig.NewController(n.parts[0].engine, n.parts[0].reg)
	return n, nil
}

// runPartitioned is Run for partitioned builds: start-flow events are
// scheduled on each source NIC's partition engine, the barrier-stepped
// runner advances every partition to the drain deadline, and the
// scratch registries/collectors/attributions merge back in partition
// order. One-shot: the merge folds scratch state into the shared view,
// so a second Run would double-count.
func (n *Net) runPartitioned(warmup, duration sim.Time) {
	if n.merged {
		panic("testbed: partitioned Run may only be called once")
	}
	start := n.parts[0].engine.Now() + warmup
	stop := start + duration
	n.flowStop = stop
	for _, spec := range n.specs {
		nic, ok := n.NICs[spec.SrcHost]
		if !ok {
			panic(fmt.Sprintf("testbed: flow %d source host %d has no NIC", spec.ID, spec.SrcHost))
		}
		nic.SetStopTime(stop)
		spec := spec
		eng := n.parts[n.hostPart[spec.SrcHost]].engine
		eng.At(start, fmt.Sprintf("start-flow%d", spec.ID), func(*sim.Engine) {
			nic.StartFlow(spec)
		})
	}
	drain := 4*n.opts.Design.Config.SlotSize + sim.Millisecond
	n.runner.RunUntil(stop + drain)
	n.mergeResults()
}

// mergeResults folds every partition's scratch state into the shared
// view, in ascending partition order (the order that reproduces serial
// registration, see psim.Assign).
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
