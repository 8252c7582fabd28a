// Package testbed assembles complete simulated TSN networks from a
// TSN-Builder design: it instantiates one switch model per topology
// node, cables trunks and TSNNic end stations, programs the forwarding
// and classification tables for every flow, configures meters and
// credit-based shapers, synchronizes all switch clocks with gPTP, and
// runs the scenario while the analyzer collects latency/jitter/loss —
// the software equivalent of the paper's Fig. 6 demo setup.
package testbed

import (
	"bytes"
	"crypto/sha256"
	"fmt"
	"io"
	"slices"
	"sort"

	"github.com/tsnbuilder/tsnbuilder/internal/analyzer"
	"github.com/tsnbuilder/tsnbuilder/internal/clock"
	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/frer"
	"github.com/tsnbuilder/tsnbuilder/internal/gate"
	"github.com/tsnbuilder/tsnbuilder/internal/gptp"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/obs"
	"github.com/tsnbuilder/tsnbuilder/internal/pcap"
	"github.com/tsnbuilder/tsnbuilder/internal/psim"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tables"
	"github.com/tsnbuilder/tsnbuilder/internal/tas"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/internal/trace"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnnic"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

// Options configures Build.
type Options struct {
	// Design supplies every switch's resource configuration.
	Design *core.Design
	// Topo is the network shape with hosts already attached.
	Topo *topology.Topology
	// Flows must have paths bound (core.BindPaths).
	Flows []*flows.Spec
	// EnableGPTP synchronizes switch clocks over the trunk links; when
	// false all switches share perfect clocks.
	EnableGPTP bool
	// SharedBufferNum, when positive, builds every switch with one
	// shared buffer pool of that size (SMS architecture) instead of the
	// design's per-port pools.
	SharedBufferNum int
	// EnableTrace sizes Net.Flight to the most recent 1 Mi events, a
	// trace to analyze after the run, instead of what a post-mortem dump
	// reads.
	EnableTrace bool
	// DisableCBS skips credit-based shaper configuration: RC queues
	// run on bare strict priority (the E-CBS ablation's baseline).
	DisableCBS bool
	// Pcap, when non-nil, receives a nanosecond-resolution capture of
	// every frame delivered to an end device.
	Pcap io.Writer
	// AccessRate, when positive, sets the line rate of every host
	// access port (and its NIC) — mixed-speed networks with slower
	// field devices on fast trunks. Zero keeps the design's LinkRate.
	AccessRate ethernet.Rate
	// Metrics, when non-nil, wires every switch, the scheduler, the
	// collector and the gPTP domain into one telemetry registry.
	// Instruments resolve at build time; the hot path pays one atomic-
	// free increment per probe. Nil runs uninstrumented.
	Metrics *metrics.Registry
	// Seed drives clock drift assignment.
	Seed uint64
	// Faults, when non-nil, schedules the fault scenario on the built
	// network. Fault times (at_us) are absolute simulation time, so with
	// gPTP the warmup window counts too. The seed for probabilistic
	// impairments is Seed unless the scenario carries its own.
	Faults *faults.Scenario
	// EnableWatchdog runs the runtime invariant watchdog: periodic
	// audits of buffer conservation, queue bounds, gate monotonicity
	// and FRER bounds, plus the graceful-degradation policy that sheds
	// BE/RC traffic under buffer pressure before TS is touched.
	EnableWatchdog bool
	// Partitions, when > 1, shards the topology across that many
	// engines and runs them in parallel with conservative lookahead
	// (internal/psim). Exported metrics and per-flow statistics are
	// byte-identical to a serial run (the scheduler heap-depth gauge
	// excepted — see DESIGN.md §16). Features that would couple
	// partitions outside the frame channel are rejected at build:
	// gPTP, faults, watchdog, trace, pcap, FRER flows and live
	// reconfiguration. 0 or 1 builds the ordinary serial network.
	Partitions int
}

// Net is a built network ready to run.
type Net struct {
	Engine    *sim.Engine // nil when partitioned: each part has its own
	Switches  []*tsnswitch.Switch
	NICs      map[int]*tsnnic.NIC
	Collector *analyzer.Collector
	Domain    *gptp.Domain // nil without gPTP
	// Flight is the always-on bounded flight recorder every switch
	// writes into; the attribution layer dumps it on deadline misses,
	// watchdog degradation and fault injection, and -hotspots and
	// -trace-json read it. Nil when partitioned.
	Flight *trace.Flight
	// Attr books every delivery's latency components into the registry's
	// histograms and keeps the flight-recorder dumps; nil unless
	// Options.Metrics is set. Each flow's decomposition is its Collector
	// row.
	Attr *obs.Attribution
	// Server is the live telemetry HTTP server; nil until Serve binds
	// one. Shut it down with Server.Shutdown to drain in-flight
	// requests before exit.
	Server   *obs.Server
	Capture  *pcap.Writer      // nil unless Options.Pcap set
	Metrics  *metrics.Registry // nil unless Options.Metrics set
	Injector *faults.Injector  // nil unless Options.Faults set
	// Reconfig is the transactional live-reconfiguration controller;
	// always present so fault scenarios can arm mid-apply failures.
	Reconfig *reconfig.Controller
	// Watchdog is the runtime invariant auditor; nil unless
	// Options.EnableWatchdog.
	Watchdog *reconfig.Watchdog

	// parts are the engines the network runs on, with the state their
	// switches and NICs record into, and assign maps each switch to its
	// part. A serial build has one part, which aliases the fields above;
	// only a build with several has a barrier-stepped runner and, after
	// its one Run, merged scratch state. See partition.go.
	parts  []*part
	assign []int
	runner *psim.Runner
	merged bool

	opts Options
	// talkers are the admitted flows, in admission order (installFlows).
	talkers []talker
	// liveCfg tracks the configuration currently in force: the design's
	// at build, then each committed reconfiguration's candidate.
	liveCfg core.Config
	// recovery maps listener host → FRER sequence-recovery table.
	recovery          map[int]*frer.Table
	frerCap, frerHist int
	prog              progState
	flowStop          sim.Time
}

// progState is the control plane's incremental programming cursor, so
// flows added mid-run (after a reconfiguration grew the tables) extend
// the original programming instead of recomputing it.
type progState struct {
	// flowIdx counts programmed flows; RC queue assignment cycles on it.
	flowIdx int
	// nextMeter is each switch's next free meter index: its table holds
	// only the flows bound through it, so nothing network-wide indexes it.
	nextMeter []int
	// reserved is the cumulative RC bandwidth per (switch, port, queue)
	// cell, the input to CBS slope configuration.
	reserved map[pq]ethernet.Rate
}

// talker is one admitted flow's generator: its source NIC and the
// flow's row there.
type talker struct {
	nic *tsnnic.NIC
	row int
}

// pq addresses one (switch, port, queue) cell.
type pq struct{ sw, port, q int }

// flightCapacity is the flight recorder's ring size: what a post-mortem
// dump reads (obs.DumpWindow, 1.57 MB per engine), or with EnableTrace
// the most recent 1 Mi events (24 MB).
func (o *Options) flightCapacity() int {
	if o.EnableTrace {
		return 1 << 20
	}
	return obs.DumpWindow
}

// Build assembles the network. There is one build: the topology is
// sharded into min(Options.Partitions, Topo.N) parts, and an ordinary
// serial network is the one-part case, whose single part aliases the
// Net's own registry, collector and flight recorder (see partition.go).
func Build(opts Options) (*Net, error) {
	if opts.Design == nil || opts.Topo == nil {
		return nil, fmt.Errorf("testbed: missing design or topology")
	}
	if opts.Partitions > 1 {
		if err := validatePartitioned(opts); err != nil {
			return nil, err
		}
	}
	n := &Net{
		NICs:      make(map[int]*tsnnic.NIC),
		Collector: analyzer.NewCollector(),
		Metrics:   opts.Metrics,
		opts:      opts,
		liveCfg:   opts.Design.Config,
		recovery:  make(map[int]*frer.Table),
		prog: progState{
			nextMeter: make([]int, opts.Topo.N),
			reserved:  make(map[pq]ethernet.Rate),
		},
	}
	n.shard(max(1, min(opts.Partitions, opts.Topo.N)))
	// gPTP, the watchdog and fault injection are rejected above one part,
	// so where they run part 0's engine is the network's only engine.
	engine := n.parts[0].engine

	// Access ports run at AccessRate when configured.
	accessPorts := make(map[[2]int]bool) // switch, port
	if opts.AccessRate > 0 {
		for _, h := range opts.Topo.Hosts() {
			at, _ := opts.Topo.HostAttach(h)
			accessPorts[[2]int{at.Switch, at.Port}] = true
		}
	}

	// Switches, one per topology node, each on its part's engine and
	// all on one set of CQF lists. The ascending-ID loop plus
	// psim.Assign's ascending-ID blocks keep every part registry's
	// per-switch samples in the one-part registration order.
	var cqf tsnswitch.CQFLists
	for s := 0; s < opts.Topo.N; s++ {
		p := n.switchPart(s)
		cfg := opts.Design.SwitchConfig(s, opts.Topo.PortCount(s))
		cfg.SharedBufferNum = opts.SharedBufferNum
		cfg.Metrics = p.reg
		cfg.CQF = &cqf
		if opts.AccessRate > 0 {
			cfg.PortRates = make([]ethernet.Rate, cfg.Ports)
			for pt := 0; pt < cfg.Ports; pt++ {
				if accessPorts[[2]int{s, pt}] {
					cfg.PortRates[pt] = opts.AccessRate
				}
			}
		}
		sw := tsnswitch.New(p.engine, cfg)
		sw.Flight = p.flight
		sw.SetPool(&p.frames)
		n.Switches = append(n.Switches, sw)
	}

	// Trunk cables; the ones whose ends landed in different parts also
	// get a mailbox per direction, and those cut links set the runner's
	// lookahead.
	var cuts []psim.CutLink
	for _, l := range opts.Topo.TrunkLinks() {
		a := n.Switches[l.A.Switch].Ifc(l.A.Port)
		b := n.Switches[l.B.Switch].Ifc(l.B.Port)
		netdev.Connect(a, b, netdev.CableDelay)
		if pa, pb := n.switchPart(l.A.Switch), n.switchPart(l.B.Switch); pa != pb {
			cuts = append(cuts, cutLink(a, b, pb, netdev.CableDelay), cutLink(b, a, pa, netdev.CableDelay))
		}
	}
	if len(n.parts) > 1 {
		psParts := make([]*psim.Partition, len(n.parts))
		for k, p := range n.parts {
			psParts[k] = p.ps
		}
		n.runner = psim.NewRunner(psParts, psim.Lookahead(cuts))
	}

	// End stations, optionally tapped into a pcap capture: each NIC
	// lives on (and records into) the part of the switch it attaches to,
	// so NIC↔switch cables are never cut.
	var capture *pcap.Writer
	if opts.Pcap != nil {
		capture = pcap.NewWriter(opts.Pcap)
		n.Capture = capture
	}
	for _, h := range opts.Topo.Hosts() {
		at, _ := opts.Topo.HostAttach(h)
		p := n.switchPart(at.Switch)
		nicRate := opts.Design.Config.LinkRate
		if opts.AccessRate > 0 {
			nicRate = opts.AccessRate
		}
		nic := tsnnic.New(p.engine, h, nicRate, p.coll)
		nic.SetPool(&p.frames)
		netdev.Connect(nic.Ifc(), n.Switches[at.Switch].Ifc(at.Port), netdev.CableDelay)
		if capture != nil {
			nic.Ifc().SetSniffer(func(f *ethernet.Frame, at sim.Time) {
				// Capture errors only surface through Capture.Count.
				_ = capture.WriteFrame(at, f)
			})
		}
		n.NICs[h] = nic
	}
	n.assignDeliverPrios()

	// gPTP domain over the trunks, grandmaster at switch 0.
	if opts.EnableGPTP {
		dom := gptp.NewDomain(engine)
		rng := sim.NewRand(opts.Seed ^ 0x74657374)
		nodes := make([]*gptp.Node, opts.Topo.N)
		for s := 0; s < opts.Topo.N; s++ {
			drift := clock.PPB(rng.Int63n(100_000) - 50_000)
			offset := sim.Time(rng.Int63n(int64(sim.Millisecond)))
			if s == 0 {
				drift, offset = 0, 0
			}
			nodes[s] = dom.AddNode(s, drift, offset)
			n.Switches[s].Clock = nodes[s].Clock
		}
		for _, l := range opts.Topo.TrunkLinks() {
			dom.Connect(nodes[l.A.Switch], nodes[l.B.Switch], netdev.CableDelay)
		}
		dom.SetGrandmaster(nodes[0])
		if opts.Metrics != nil {
			dom.Instrument(opts.Metrics)
		}
		dom.Start()
		n.Domain = dom
	}

	if err := n.program(); err != nil {
		return nil, err
	}

	// Live-reconfiguration controller: always present, so fault
	// scenarios can arm mid-apply failures even before the first
	// Reconfigure call. It registers its metric families at construction,
	// in part 0's registry; a sharded network rejects Reconfigure, so
	// there it only ever exports zero-valued counters — exactly like a
	// serial run that never reconfigures.
	n.Reconfig = reconfig.NewController(engine, n.parts[0].reg)

	// Invariant watchdog over every switch and recovery table.
	if opts.EnableWatchdog {
		n.Watchdog = reconfig.NewWatchdog(engine, opts.Metrics)
		for _, sw := range n.Switches {
			n.Watchdog.Watch(sw)
		}
		for _, tbl := range n.sortedRecovery() {
			n.Watchdog.WatchFRER(tbl)
		}
		// A fresh degradation snapshots the flight recorder so the events
		// that led into the pressure survive the ring.
		if n.Attr != nil {
			w := n.Watchdog
			wasDegraded := false
			w.OnAudit = func() {
				degraded := w.Degraded()
				if degraded && !wasDegraded {
					n.Attr.DumpNow("watchdog:degraded", engine.Now())
				}
				wasDegraded = degraded
			}
		}
		n.Watchdog.Start()
	}

	// Fault scenario: resolve selectors against the built network and
	// schedule every fault (absolute sim time, from now = 0).
	if opts.Faults != nil {
		n.Injector = faults.NewInjector(engine, opts.Seed, opts.Metrics)
		if n.Attr != nil {
			n.Injector.OnInject = func(kind string) {
				n.Attr.DumpNow("fault:"+kind, engine.Now())
			}
		}
		if err := n.Injector.Apply(opts.Faults, n.faultBindings()); err != nil {
			return nil, err
		}
	}
	return n, nil
}

// sortedRecovery lists the FRER recovery tables in listener-host order,
// the deterministic order used for watchdog audits and reconfiguration
// bindings.
func (n *Net) sortedRecovery() []*frer.Table {
	// Collected by hand, not with slices.Sorted(maps.Keys(…)): every
	// reconfiguration commit calls this, and the iterator form costs
	// three allocations even when there is nothing to sort.
	hosts := make([]int, 0, len(n.recovery))
	for h := range n.recovery {
		hosts = append(hosts, h)
	}
	sort.Ints(hosts)
	out := make([]*frer.Table, len(hosts))
	for i, h := range hosts {
		out[i] = n.recovery[h]
	}
	return out
}

// faultBindings maps fault-scenario selectors (switch pairs, hosts,
// switch IDs) to the live objects the injector manipulates.
func (n *Net) faultBindings() faults.Bindings {
	topo := n.opts.Topo
	return faults.Bindings{
		TrunkIfc: func(a, b int) (*netdev.Ifc, error) {
			if a < 0 || a >= len(n.Switches) || b < 0 || b >= len(n.Switches) {
				return nil, fmt.Errorf("testbed: no switch pair %d-%d", a, b)
			}
			p, ok := topo.PortToward(a, b)
			if !ok {
				return nil, fmt.Errorf("testbed: no trunk %d-%d", a, b)
			}
			return n.Switches[a].Ifc(p.Port), nil
		},
		HostIfc: func(host int) (*netdev.Ifc, error) {
			nic, ok := n.NICs[host]
			if !ok {
				return nil, fmt.Errorf("testbed: no host %d", host)
			}
			return nic.Ifc(), nil
		},
		Switch: func(id int) (*tsnswitch.Switch, error) {
			if id < 0 || id >= len(n.Switches) {
				return nil, fmt.Errorf("testbed: no switch %d", id)
			}
			return n.Switches[id], nil
		},
		Domain:   n.Domain,
		Reconfig: n.Reconfig,
	}
}

// program installs forwarding, classification, meter and CBS state for
// every flow, as the embedded CPU does at run-time in the prototype.
func (n *Net) program() error {
	// FRER sizing: the sequence-recovery table at each listener holds
	// every redundant stream the design provisioned (set_frer_tbl), or
	// at minimum every FRER flow in the workload.
	nFRER := 0
	for _, spec := range n.opts.Flows {
		if spec.FRER {
			nFRER++
		}
	}
	n.frerCap = n.liveCfg.FRERSize
	if n.frerCap < nFRER {
		n.frerCap = nFRER
	}
	n.frerHist = n.liveCfg.FRERHistory
	if n.frerHist <= 0 {
		n.frerHist = frer.DefaultHistory
	}

	return n.installFlows(n.opts.Flows)
}

// installFlows admits specs: it programs forwarding, classification and
// meter state, advancing the incremental programming cursor (n.prog) so
// the same function serves the initial build and flows added live,
// gives every flow its rows (admit), then (re)configures CBS on the
// (switch, port, queue) cells whose RC bandwidth reservation changed. An
// invalid spec, a repeated flow ID or a source host without a NIC is
// rejected before anything is touched; on a later error the tables may
// hold a partial install.
func (n *Net) installFlows(specs []*flows.Spec) error {
	ids := make([]uint32, len(specs))
	for i, spec := range specs {
		if err := spec.Validate(); err != nil {
			return fmt.Errorf("testbed: %w", err)
		}
		if _, ok := n.NICs[spec.SrcHost]; !ok {
			return fmt.Errorf("testbed: flow %d source host %d has no NIC", spec.ID, spec.SrcHost)
		}
		ids[i] = spec.ID
	}
	slices.Sort(ids)
	for i, id := range ids {
		used := i > 0 && ids[i-1] == id
		for _, p := range n.parts { // an admitted flow has a row at its listener's part
			used = used || p.coll.Flow(id) != nil
		}
		if used {
			return fmt.Errorf("testbed: flow ID %d is used twice", id)
		}
	}
	need := n.need(specs) // a network's first batch fills its tables without growing them
	for s, sw := range n.Switches {
		sw.Forward().Unicast.Reserve(need[s][0])
		sw.Filter().Class.Reserve(need[s][1])
	}
	topo := n.opts.Topo
	rcQueues := rcQueueSet(n.liveCfg)
	tsQueue, _ := n.liveCfg.TSQueues()
	changed := map[pq]bool{}

	for _, spec := range specs {
		idx := n.prog.flowIdx
		n.prog.flowIdx++
		if len(spec.Path) == 0 {
			return fmt.Errorf("testbed: flow %d path not bound", spec.ID)
		}
		// Queue assignment by class.
		var queueID int
		switch spec.Class {
		case ethernet.ClassTS:
			queueID = tsQueue
		case ethernet.ClassRC:
			queueID = rcQueues[idx%len(rcQueues)]
		default:
			queueID = 0
		}
		dstMAC := ethernet.HostMAC(spec.DstHost)

		// installPath programs forwarding and classification for one
		// member path under one VID. withMeter adds RC policing and CBS
		// bandwidth reservation — primary path only; FRER member streams
		// are TS and never metered.
		installPath := func(path []int, vid uint16, withMeter bool) error {
			for h, swID := range path {
				hop, err := topo.Egress(path, spec.DstHost, h)
				if err != nil {
					return fmt.Errorf("testbed: flow %d: %w", spec.ID, err)
				}
				sw, outPort := n.Switches[swID], hop.Port
				if err := sw.Forward().Unicast.Add(dstMAC, vid, outPort); err != nil {
					return fmt.Errorf("testbed: flow %d switch %d: %w", spec.ID, swID, err)
				}
				entry := tables.ClassEntry{QueueID: queueID}
				if withMeter {
					entry.MeterID = n.prog.nextMeter[swID]
					n.prog.nextMeter[swID]++
					entry.HasMeter = true
					// The meter must admit the flow's declared burst; the
					// CBS, not the policer, spreads it (802.1Qav).
					burst := 4 * spec.WireSize
					if b := 2 * spec.BurstFrames() * spec.WireSize; b > burst {
						burst = b
					}
					if err := sw.Filter().Meters.Configure(entry.MeterID, spec.Rate+spec.Rate/10, burst); err != nil {
						return fmt.Errorf("testbed: flow %d meter: %w", spec.ID, err)
					}
					cell := pq{swID, outPort, queueID}
					n.prog.reserved[cell] += spec.Rate
					changed[cell] = true
				}
				key := tables.ClassKey{
					Src: ethernet.HostMAC(spec.SrcHost), Dst: dstMAC,
					VID: vid, PRI: spec.PCP,
				}
				if err := sw.Filter().Class.Add(key, entry); err != nil {
					return fmt.Errorf("testbed: flow %d switch %d: %w", spec.ID, swID, err)
				}
			}
			return nil
		}
		if err := installPath(spec.Path, spec.VID, spec.Class == ethernet.ClassRC); err != nil {
			return err
		}
		if spec.FRER {
			if err := n.programFRER(spec, n.recovery, n.frerCap, n.frerHist, installPath); err != nil {
				return err
			}
		}
	}
	n.admit(specs)

	// Deterministic cell order: a port's CBS ids are handed out in this
	// order, so it must not depend on map iteration (bit-identical
	// reruns).
	cells := make([]pq, 0, len(changed))
	for cell := range changed {
		cells = append(cells, cell)
	}
	sort.Slice(cells, func(i, j int) bool {
		a, b := cells[i], cells[j]
		if a.sw != b.sw {
			return a.sw < b.sw
		}
		if a.port != b.port {
			return a.port < b.port
		}
		return a.q < b.q
	})
	return n.applyCBS(cells)
}

// admit gives each flow of a batch its rows. The flow is received (and
// its stats kept) on the part its listener NIC lives in: that part's
// collector admits the part's share of the batch in one block, and the
// talker NIC gets a generator row that stamps the listener's row into
// every frame, so no layer meets the flow for the first time mid-run.
func (n *Net) admit(specs []*flows.Spec) {
	listener := make([]*part, len(specs))
	perNIC := make(map[*tsnnic.NIC]int)
	for i, spec := range specs {
		listener[i] = n.hostPart(spec.DstHost)
		perNIC[n.NICs[spec.SrcHost]]++
	}
	for nic, k := range perNIC {
		nic.Reserve(k)
	}
	base := len(n.talkers)
	n.talkers = slices.Grow(n.talkers, len(specs))[:base+len(specs)]
	batch := make([]*flows.Spec, 0, len(specs))
	for _, p := range n.parts {
		batch = batch[:0]
		for i, spec := range specs {
			if listener[i] == p {
				batch = append(batch, spec)
			}
		}
		row := p.coll.Admit(batch)
		for i, spec := range specs {
			if listener[i] == p {
				row++ // the Row stamp: the listener's row plus one
				nic := n.NICs[spec.SrcHost]
				n.talkers[base+i] = talker{nic, nic.Admit(spec, uint32(row))}
			}
		}
	}
}

// applyCBS configures one credit-based shaper per touched RC cell with
// the cumulative reserved bandwidth + 25% headroom, capped below line
// rate. Cells already attached to a shaper get their idle slope
// re-programmed in place; a new cell's shaper is its bank's next free
// id — only this attaches, one shaper per cell, so that is MapLen.
func (n *Net) applyCBS(cells []pq) error {
	if n.opts.DisableCBS {
		return nil
	}
	for _, cell := range cells {
		rate := n.prog.reserved[cell]
		sw := n.Switches[cell.sw]
		idle := rate + rate/4
		if idle >= n.liveCfg.LinkRate {
			idle = n.liveCfg.LinkRate - 1
		}
		bank := sw.Bank(cell.port)
		if cbs := bank.For(cell.q); cbs != nil {
			cbs.Configure(idle, n.liveCfg.LinkRate)
			continue
		}
		id := bank.MapLen()
		if err := bank.Attach(cell.q, id); err != nil {
			return fmt.Errorf("testbed: cbs attach sw%d p%d q%d: %w", cell.sw, cell.port, cell.q, err)
		}
		if err := bank.Configure(id, idle, n.liveCfg.LinkRate); err != nil {
			return fmt.Errorf("testbed: cbs configure: %w", err)
		}
		if reg := n.switchPart(cell.sw).reg; reg != nil {
			stalls := reg.Counters("tsn_cbs_stalls_total", "egress selections blocked on negative CBS credit",
				"switch", "port", "queue")
			bank.For(cell.q).Instrument(stalls.With(metrics.Int(cell.sw), metrics.Int(cell.port), metrics.Int(cell.q)))
		}
	}
	return nil
}

// programFRER wires one 802.1CB redundant flow: the member stream's
// forwarding/classification entries along the disjoint alternate path
// (same destination MAC, alternate VID) and listener-side sequence
// recovery at the destination NIC; the talker replicates what its spec
// marks FRER. installPath is the per-path programmer from program().
func (n *Net) programFRER(spec *flows.Spec, recovery map[int]*frer.Table,
	capacity, history int, installPath func(path []int, vid uint16, withMeter bool) error) error {
	if len(spec.AltPath) == 0 {
		return fmt.Errorf("testbed: FRER flow %d alternate path not bound", spec.ID)
	}
	if err := installPath(spec.AltPath, spec.AltVID, false); err != nil {
		return err
	}
	dst, ok := n.NICs[spec.DstHost]
	if !ok {
		return fmt.Errorf("testbed: FRER flow %d destination host %d has no NIC", spec.ID, spec.DstHost)
	}
	tbl := recovery[spec.DstHost]
	if tbl == nil {
		tbl = frer.NewTable(capacity, history)
		reg, host := n.hostPart(spec.DstHost).reg, metrics.Int(spec.DstHost)
		tbl.Instrument(
			reg.Counters(frer.MetricPassed, "frames passed by 802.1CB sequence recovery", "host").With(host),
			reg.Counters(frer.MetricEliminated, "duplicate member-stream frames eliminated", "host").With(host),
			reg.Counters(frer.MetricRogue, "out-of-window frames discarded as rogue", "host").With(host),
		)
		recovery[spec.DstHost] = tbl
		dst.SetRecovery(tbl)
	}
	if err := tbl.Register(spec.ID); err != nil {
		return fmt.Errorf("testbed: FRER flow %d: %w", spec.ID, err)
	}
	return nil
}

// rcQueueSet returns the queue indices reserved for RC traffic: one
// per CBS map entry, just below the CQF pair (e.g. 5,4,3 with 8 queues
// and 3 entries), and at least one.
func rcQueueSet(c core.Config) []int {
	_, b := c.TSQueues()
	top := b - 1
	if c.CBSMapSize <= 0 {
		return []int{top}
	}
	out := make([]int, 0, c.CBSMapSize)
	for q := top; q > top-c.CBSMapSize && q > 0; q-- {
		out = append(out, q)
	}
	return out
}

// InstallTAS replaces the default CQF gate configuration with a
// synthesized 802.1Qbv schedule: every port with reserved windows gets
// the compiled in/out gate lists; ports without TS windows keep their
// gates fully open. The design's gate table size must accommodate the
// schedule (set Config.GateSize ≥ Schedule.MaxGateEntries before
// building), and Run's warmup must be a multiple of the schedule cycle
// so injection offsets stay phase-aligned with the gate lists.
func (n *Net) InstallTAS(sch *tas.Schedule) error {
	qa, qb := n.opts.Design.Config.TSQueues()
	open := gate.AlwaysOpen(sch.Cycle)
	for s, sw := range n.Switches {
		for p := 0; p < n.opts.Topo.PortCount(s); p++ {
			pk := tas.PortKey{Switch: s, Port: p}
			if len(sch.Windows[pk]) == 0 {
				if err := sw.SetPortSchedules(p, open, open); err != nil {
					return err
				}
				continue
			}
			in, out, err := sch.GCLs(pk, qa, qb)
			if err != nil {
				return err
			}
			if err := sw.SetPortSchedules(p, in, out); err != nil {
				return err
			}
		}
	}
	return nil
}

// Run executes the scenario: gPTP (if enabled) converges during warmup,
// flows generate for duration, then the network drains. Flow generation
// begins at warmup and stops at warmup+duration. A partitioned network
// runs once: the merge folds scratch state into the shared view, so a
// second Run would double-count.
func (n *Net) Run(warmup, duration sim.Time) {
	if n.merged {
		panic("testbed: partitioned Run may only be called once")
	}
	start := n.parts[0].engine.Now() + warmup
	stop := start + duration
	n.flowStop = stop
	n.start(n.talkers, start)
	// Drain: two slots plus cable time covers any in-flight CQF frame.
	drain := 4*n.opts.Design.Config.SlotSize + sim.Millisecond
	if n.runner == nil {
		n.Engine.RunUntil(stop + drain)
		return
	}
	n.runner.RunUntil(stop + drain)
	n.mergeResults()
}

// telemetryPublishInterval is the simulated-time cadence at which the
// telemetry server's registry snapshot, flow rows and event feed
// refresh during a run.
const telemetryPublishInterval = 10 * sim.Millisecond

// Serve starts the live telemetry HTTP server on addr (e.g. ":9090",
// or ":0" for an ephemeral port) over this network's attribution and
// flight recorder, and returns it (also stored in n.Server) plus the
// bound address. A periodic engine event calls Publish every
// telemetryPublishInterval of simulated time — the HTTP goroutines only
// ever read published copies, never the hot-path cells, the watchdog or
// the live ring; call Publish once more after the run for the final
// state. The server drains gracefully via srv.Hold or Shutdown. A
// partitioned network has no one engine to publish from or recorder to
// serve, and is refused.
func (n *Net) Serve(addr string) (*obs.Server, string, error) {
	if n.runner != nil {
		return nil, "", fmt.Errorf("testbed: live telemetry is not supported in partitioned runs (no one engine publishes, and the flight recorders are per partition)")
	}
	srv := obs.NewServer(n.Attr, n.Flight)
	srv.FeedEvents() // clients may arrive after the last Publish
	srv.MountPublished()
	n.Server = srv
	n.Publish()
	var tick func(e *sim.Engine)
	tick = func(e *sim.Engine) {
		n.Publish()
		e.After(telemetryPublishInterval, "obs:publish", tick)
	}
	n.Engine.After(telemetryPublishInterval, "obs:publish", tick)
	bound, err := srv.Listen(addr)
	if err != nil {
		n.Server = nil
		return nil, "", err
	}
	return srv, bound, nil
}

// Publish hands the telemetry server the network's state: a registry
// snapshot, the collector's rows, the recorder's new events and the
// watchdog's health report (all zero without a watchdog). A no-op
// without a server. Call it on the simulation thread.
func (n *Net) Publish() {
	if n.Server == nil {
		return
	}
	h := &obs.HealthReport{}
	if w := n.Watchdog; w != nil {
		h.Degraded, h.Detail, h.Audits, h.Violations = w.Degraded(), w.LastDetail(), w.Audits(), w.TotalViolations()
	}
	n.Server.Publish(n.Metrics.Snapshot(), n.Collector, h)
}

// LiveConfig returns the configuration currently in force: the design's
// at build time, then the committed candidate after each successful
// reconfiguration. A rolled-back transaction leaves it unchanged.
func (n *Net) LiveConfig() core.Config { return n.liveCfg }

// VerifyLive checks that every switch's resizable resources match its
// share (Design.Local) of the configuration the controller believes is
// in force (LiveConfig), class by class (reconfig.Verify): the
// reconfiguration-atomicity postcondition the chaos oracle leans on.
// After a committed transaction the switches must carry the candidate,
// after a rollback the pre-transaction configuration; a mismatch means a
// commit died partway and left partial state. Switches are scanned last
// to first, so the mismatch named is the last staged operation applied.
func (n *Net) VerifyLive() error {
	for s := len(n.Switches) - 1; s >= 0; s-- {
		if err := reconfig.Verify(n.Switches[s], n.opts.Design.Local(n.liveCfg, s)); err != nil {
			return fmt.Errorf("testbed: %w: partial reconfiguration left in place", err)
		}
	}
	return nil
}

// reconfigBindings connects the reconfiguration engine to the live
// resources it validates against and operates on.
func (n *Net) reconfigBindings() reconfig.Bindings {
	return reconfig.Bindings{
		Switches: n.Switches,
		FRER:     n.sortedRecovery(),
		Platform: n.opts.Design.Platform,
		Design:   n.opts.Design,
	}
}

// Reconfigure begins a transactional live reconfiguration to cfg:
// stage what differs on the running switches (to LiveConfig, what a
// wedged commit left), and schedule the atomic commit for the next CQF
// cycle boundary. An inapplicable candidate is rejected here, before
// anything is touched. The returned transaction resolves (committed or
// rolled back) at its CommitTime; inspect State and Err after the
// engine passes it.
func (n *Net) Reconfigure(cfg core.Config) (*reconfig.Txn, error) {
	if n.runner != nil {
		return nil, fmt.Errorf("testbed: live reconfiguration is not supported in partitioned runs (a commit would touch switches across partition goroutines)")
	}
	txn, err := n.Reconfig.Begin(n.liveCfg, cfg, n.reconfigBindings())
	if err != nil {
		return nil, err
	}
	txn.OnResolve(func(t *reconfig.Txn) {
		if t.State() == reconfig.StateCommitted {
			n.liveCfg = cfg
		}
	})
	txn.CommitAtBoundary()
	return txn, nil
}

// AddFlows programs additional non-FRER flows into the running network
// and schedules their generators to start at the absolute instant
// start. Call it after Run has begun (typically from an engine event,
// e.g. once a reconfiguration that grew the tables has committed); the
// new flows stop with the rest of the workload. An invalid spec, a flow
// ID already in use, a past start or a batch some switch has no table
// room for (on a derived design,
// any batch until a reconfiguration grows the tables) is rejected before
// anything is touched.
func (n *Net) AddFlows(specs []*flows.Spec, start sim.Time) error {
	if n.runner != nil {
		return fmt.Errorf("testbed: AddFlows is not supported in partitioned runs (table programming would race the partition workers)")
	}
	if now := n.Engine.Now(); start < now {
		return fmt.Errorf("testbed: AddFlows start %v is before now %v", start, now)
	}
	for _, spec := range specs {
		if spec.FRER {
			return fmt.Errorf("testbed: flow %d: FRER flows cannot be added live", spec.ID)
		}
	}
	if err := n.fits(n.need(specs)); err != nil {
		return err
	}
	if err := n.installFlows(specs); err != nil {
		return err
	}
	n.start(n.talkers[len(n.talkers)-len(specs):], start)
	return nil
}

// start starts the talkers' generators at the absolute instant at; they
// stop with the rest of the workload.
func (n *Net) start(talkers []talker, at sim.Time) {
	for _, t := range talkers {
		t.nic.SetStopTime(n.flowStop)
		t.nic.Start(t.row, at)
	}
}

// need counts the unicast, classification and meter slots specs take on
// each switch: the first two once per hop of every member path, a meter
// per hop of an RC flow's path. The count is an upper bound (a repeated
// (dst, VID) key overwrites instead of taking a slot).
func (n *Net) need(specs []*flows.Spec) [][3]int {
	need := make([][3]int, len(n.Switches))
	for _, spec := range specs {
		for _, s := range spec.Path {
			need[s][0]++
			need[s][1]++
			if spec.Class == ethernet.ClassRC {
				need[s][2]++
			}
		}
		if spec.FRER {
			for _, s := range spec.AltPath {
				need[s][0]++
				need[s][1]++
			}
		}
	}
	return need
}

// fits checks the slots a batch needs on each switch against the room
// left there. need is an upper bound, so the check is conservative: it
// can refuse a batch that would have fitted, never admit one that won't.
func (n *Net) fits(need [][3]int) error {
	for s, sw := range n.Switches {
		uni, cls, met := sw.Forward().Unicast, sw.Filter().Class, sw.Filter().Meters
		room := [3]int{uni.Capacity() - uni.Len(), cls.Capacity() - cls.Len(), met.Capacity() - n.prog.nextMeter[s]}
		for i, table := range [3]string{"unicast", "classification", "meter"} {
			if need[s][i] > room[i] {
				return fmt.Errorf("testbed: AddFlows: switch %d %s table needs %d more slots, has room for %d",
					s, table, need[s][i], room[i])
			}
		}
	}
	return nil
}

// SentCounts merges per-flow transmit counts across all NICs.
func (n *Net) SentCounts() map[uint32]uint64 {
	out := make(map[uint32]uint64)
	for _, nic := range n.NICs {
		for id, c := range nic.Sent() {
			out[id] += c
		}
	}
	return out
}

// ExportDigest is the hex SHA-256 of what a run exports: the per-flow
// rows (tsnsim -csv) and the Prometheus text (-metrics) but the heap-depth
// gauge, which a partitioned run's shallower heaps change — so a serial
// and a partitioned run of one scenario digest alike.
func (n *Net) ExportDigest() string {
	h := sha256.New()
	sent := n.SentCounts()
	for _, st := range n.Collector.Flows() {
		fmt.Fprintf(h, "%d,%s,%d,%d,%d,%d,%d,%d,%d\n", st.FlowID, st.Class,
			sent[st.FlowID], st.Received, st.MeanLatency(), st.Jitter(),
			st.MinLat, st.MaxLat, st.DeadlineMisses)
	}
	var prom bytes.Buffer
	_ = n.Metrics.Snapshot().WritePrometheus(&prom) // bytes.Buffer writes cannot fail
	for _, line := range bytes.SplitAfter(prom.Bytes(), []byte("\n")) {
		if !bytes.HasPrefix(line, []byte("tsn_sim_heap_depth_high_water ")) {
			h.Write(line)
		}
	}
	return fmt.Sprintf("%x", h.Sum(nil))
}

// Summary aggregates receive-side statistics for one traffic class.
func (n *Net) Summary(cls ethernet.Class) analyzer.Summary {
	return n.Collector.Summarize(cls, n.SentCounts())
}

// SwitchStats sums dataplane counters across all switches.
func (n *Net) SwitchStats() tsnswitch.Stats {
	var total tsnswitch.Stats
	for _, sw := range n.Switches {
		st := sw.Stats()
		total.RxFrames += st.RxFrames
		total.TxFrames += st.TxFrames
		for i := range st.Drops {
			total.Drops[i] += st.Drops[i]
		}
	}
	return total
}

// CheckBufferLeaks verifies that every switch's buffer pools drained
// back to empty — each allocated slot was freed exactly once. Call it
// after Run (the drain window lets in-flight frames complete); a
// non-nil error indicates a descriptor/pool leak in the dataplane.
func (n *Net) CheckBufferLeaks() error {
	for s, sw := range n.Switches {
		for p := 0; p < n.opts.Topo.PortCount(s); p++ {
			if inUse := sw.Port(p).Pool().InUse(); inUse != 0 {
				return fmt.Errorf("testbed: switch %d port %d leaked %d buffers", s, p, inUse)
			}
		}
	}
	return nil
}

// MaxQueueHighWater returns the worst TS-queue occupancy observed
// anywhere, the empirical check of the ITP dimensioning.
func (n *Net) MaxQueueHighWater() int {
	worst := 0
	qa, qb := n.opts.Design.Config.TSQueues()
	for s, sw := range n.Switches {
		for p := 0; p < n.opts.Topo.PortCount(s); p++ {
			for _, q := range []int{qa, qb} {
				if hw := sw.QueueHighWater(p, q); hw > worst {
					worst = hw
				}
			}
		}
	}
	return worst
}
