package testbed

// Per-switch dimensioning through the testbed: a network built from a
// derived design holds on each switch what is bound through it, live
// reconfiguration keeps it that way, and AddFlows answers "does not
// fit" before it touches anything.

import (
	"reflect"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// derivedNet builds p's workload and network from its derived design.
func derivedNet(t *testing.T, p workload.Params, opts Options) (*Net, *workload.Built) {
	t.Helper()
	w, err := workload.Build(p)
	if err != nil {
		t.Fatal(err)
	}
	opts.Design, opts.Topo, opts.Flows, opts.Seed = w.Design, w.Topo, w.Specs, p.Seed
	net, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	return net, w
}

// TestSwitchStateProportionalToCarried is the CI gate for per-switch
// state on the mesh-serial benchmark inputs: table and meter capacity
// summed over the 210 switches equals the hops bound through them
// (12 444 at seed 42; uniform sizing gave 210 × 2 048 = 430 080), and
// the 100 switches no flow reaches (workload.Build's host IDs collide
// above 100 switches) get tables of size zero.
func TestSwitchStateProportionalToCarried(t *testing.T) {
	net, w := derivedNet(t, workload.Params{Topology: "mesh", Switches: 210, TSFlows: 2048,
		Hops: 4, WireSize: 64, SlotUs: 65, Seed: 42}, Options{})
	hops := 0
	for _, s := range w.Specs {
		hops += len(s.Path)
	}
	meters, unicast, class, empty := 0, 0, 0, 0
	for _, sw := range net.Switches {
		meters += sw.Filter().Meters.Capacity()
		unicast += sw.Forward().Unicast.Capacity()
		class += sw.Filter().Class.Capacity()
		if sw.Forward().Unicast.Capacity() == 0 {
			empty++
			if c := sw.Config(); c.ClassSize != 0 || c.MeterSize != 0 || sw.Forward().Unicast.Len() != 0 {
				t.Fatalf("switch %d carries nothing but holds %+v", sw.ID(), c)
			}
		}
	}
	if meters != hops || unicast != hops || class != hops || hops != 12444 {
		t.Fatalf("Σ meter %d, Σ unicast %d, Σ class %d, want Σ len(Path) = %d (12444 at seed 42)", meters, unicast, class, hops)
	}
	if empty != 100 {
		t.Fatalf("%d switches with empty tables, want 100", empty)
	}
}

// switchConfigs snapshots every switch's configuration (the registry
// pointer aside, which no reconfiguration touches).
func switchConfigs(net *Net) []tsnswitch.Config {
	out := make([]tsnswitch.Config, len(net.Switches))
	for i, sw := range net.Switches {
		c := sw.Config()
		c.Metrics = nil
		out[i] = c
	}
	return out
}

// TestDerivedMeshReconfigurationStaysPerSwitch drives the transaction
// engine on a derived 16-switch mesh: a failure before every staged
// operation restores Local(old, s) on every switch, a commit leaves
// Local(new, s), returning to the derived configuration reproduces a
// freshly built network exactly, a network-wide size below the derived
// one is refused by the full tables, and VerifyLive still sees a wedge.
func TestDerivedMeshReconfigurationStaysPerSwitch(t *testing.T) {
	p := workload.Params{Topology: "mesh", Switches: 16, TSFlows: 128, Hops: 3,
		WireSize: 64, SlotUs: 65, RCMbps: 50, BEMbps: 50, Seed: 9}
	net, w := derivedNet(t, p, Options{})
	derived := net.LiveConfig()
	grown := grownConfig(derived)
	fresh := switchConfigs(net)

	resolve := func(cfg core.Config) *reconfig.Txn {
		t.Helper()
		txn, err := net.Reconfigure(cfg)
		if err != nil {
			t.Fatalf("reconfigure: %v", err)
		}
		for txn.State() == reconfig.StatePrepared {
			net.Engine.RunUntil(txn.CommitTime())
		}
		return txn
	}
	holds := func(cfg core.Config, when string) {
		t.Helper()
		for s, sw := range net.Switches {
			got, want := sw.Config(), w.Design.Local(cfg, s)
			if got.UnicastSize != want.UnicastSize || got.ClassSize != want.ClassSize || got.MeterSize != want.MeterSize ||
				got.QueueDepth != want.QueueDepth || got.BuffersPerPort != want.BufferNum {
				t.Fatalf("%s: switch %d holds %+v, want its share %+v", when, s, got, want)
			}
			if sw.Forward().Unicast.Capacity() != want.UnicastSize || sw.Filter().Class.Capacity() != want.ClassSize ||
				sw.Filter().Meters.Capacity() != want.MeterSize {
				t.Fatalf("%s: switch %d tables disagree with its configuration", when, s)
			}
		}
		if err := net.VerifyLive(); err != nil {
			t.Fatalf("%s: %v", when, err)
		}
	}

	// 16 switches × (switch, class, meter tables + queues + buffers).
	const nOps = 16 * 5
	for k := 0; k < nOps; k++ {
		net.Reconfig.Arm(k, reconfig.Retries+1, false)
		txn := resolve(grown)
		if n := len(txn.Ops()); n != nOps {
			t.Fatalf("staged %d ops, want %d", n, nOps)
		}
		if txn.State() != reconfig.StateRolledBack {
			t.Fatalf("failure before op %d: %v (%v)", k, txn.State(), txn.Err())
		}
		holds(derived, "rolled back")
		if !reflect.DeepEqual(switchConfigs(net), fresh) {
			t.Fatalf("failure before op %d left residue", k)
		}
	}

	if txn := resolve(grown); txn.State() != reconfig.StateCommitted {
		t.Fatalf("grow: %v (%v)", txn.State(), txn.Err())
	}
	holds(grown, "grown")
	if n := net.Switches[5].Config().UnicastSize; n >= grown.UnicastSize || n <= fresh[5].UnicastSize {
		t.Fatalf("switch 5 holds %d: neither grown from %d nor below the network-wide %d", n, fresh[5].UnicastSize, grown.UnicastSize)
	}
	if txn := resolve(derived); txn.State() != reconfig.StateCommitted {
		t.Fatalf("return to derived: %v (%v)", txn.State(), txn.Err())
	}
	holds(derived, "back at derived")
	if !reflect.DeepEqual(switchConfigs(net), fresh) {
		t.Fatal("grow-then-return differs from a freshly built network")
	}

	// Every carrying switch's tables are full, so the network-wide value
	// can never go below the derived one.
	below := derived
	below.UnicastSize--
	if _, err := net.Reconfigure(below); err == nil || !strings.Contains(err.Error(), "unicast table holds") {
		t.Fatalf("one below the derived size on full tables: err = %v", err)
	}

	net.Reconfig.Arm(7, 1, true)
	if txn := resolve(grown); txn.State() != reconfig.StateRolledBack {
		t.Fatalf("wedge: %v", txn.State())
	}
	if err := net.VerifyLive(); err == nil || !strings.Contains(err.Error(), "partial reconfiguration") {
		t.Fatalf("VerifyLive missed the wedged prefix: %v", err)
	}
}

// TestAddFlowsRejectsABatchThatDoesNotFit: on a derived design an
// un-grown add has no room, and the answer arrives as one error naming
// switch, table, need and room with the network — tables, programming
// cursor, flow list, live export — untouched. After a reconfiguration
// that raises the three table parameters by the batch size the same
// batch is accepted and runs loss-free.
func TestAddFlowsRejectsABatchThatDoesNotFit(t *testing.T) {
	p := workload.Params{Topology: "ring", Switches: 6, TSFlows: 60, Hops: 3, WireSize: 64, SlotUs: 65, RCMbps: 50, Seed: 11}
	net, w := derivedNet(t, p, Options{Metrics: metrics.New()})
	extra := flows.GenerateTS(flows.TSParams{
		Count: 59, Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
		Hosts: func(i int) (int, int) { return 100 + (i+3)%6, 100 + (i+5)%6 },
		Seed:  13,
	})
	for i, s := range extra {
		s.ID, s.VID = uint32(1000+i), uint16(2000+i)
	}
	extra = append(extra, flows.Background(2000, ethernet.ClassRC, 203, 100, 3300, 20*ethernet.Mbps))
	if err := core.BindPaths(w.Topo, extra); err != nil {
		t.Fatal(err)
	}
	// Re-derive for the larger plant: the candidate raises the three
	// table parameters by the batch size (and the depth the new plan
	// needs); the batch takes its injection offsets from the new plan.
	der2, err := core.DeriveConfig(core.Scenario{Topo: w.Topo, Flows: append(append([]*flows.Spec{}, w.Specs...), extra...)})
	if err != nil {
		t.Fatal(err)
	}
	der2.Plan.Apply(extra)
	cand, live := der2.Config, net.LiveConfig()
	if n := len(extra); cand.UnicastSize != live.UnicastSize+n || cand.ClassSize != live.ClassSize+n || cand.MeterSize != live.MeterSize+n {
		t.Fatalf("candidate does not grow the tables by the batch size: %v", core.DiffConfigs(live, cand))
	}

	var txn *reconfig.Txn
	net.Engine.At(20*sim.Millisecond, "add-too-early", func(*sim.Engine) {
		before := netState(net)
		err := net.AddFlows(extra, 25*sim.Millisecond)
		if err == nil {
			t.Fatal("an un-grown add on exact tables was accepted")
		}
		for _, want := range []string{"switch 0 unicast table needs", "more slots, has room for 0"} {
			if !strings.Contains(err.Error(), want) {
				t.Errorf("err = %v, want it to contain %q", err, want)
			}
		}
		if after := netState(net); after != before {
			t.Errorf("rejected AddFlows changed the network:\n--- before\n%s--- after\n%s", before, after)
		}
		if txn, err = net.Reconfigure(cand); err != nil {
			t.Fatalf("grow by the batch size: %v", err)
		}
	})
	net.Engine.At(40*sim.Millisecond, "add", func(*sim.Engine) {
		if txn.State() != reconfig.StateCommitted {
			t.Fatalf("grow: %v (%v)", txn.State(), txn.Err())
		}
		if err := net.AddFlows(extra, 45*sim.Millisecond); err != nil {
			t.Fatalf("the batch the grow made room for: %v", err)
		}
	})
	net.Run(0, 100*sim.Millisecond)
	if txn == nil {
		t.Fatal("events did not run")
	}
	sent := net.SentCounts()
	for _, s := range extra {
		if sent[s.ID] == 0 {
			t.Fatalf("added flow %d never transmitted", s.ID)
		}
	}
	if lost := net.Summary(ethernet.ClassTS).Lost; lost != 0 {
		t.Fatalf("TS loss %d", lost)
	}
	if err := net.VerifyLive(); err != nil {
		t.Fatal(err)
	}
}

// TestAddFlowsCountsMeterRoom: the meter need is counted per switch
// from that switch's own cursor.
func TestAddFlowsCountsMeterRoom(t *testing.T) {
	net, _, topo := liveRing(t, 12, false, Options{Metrics: metrics.New()})
	tight := net.LiveConfig()
	tight.MeterSize = 1
	txn, err := net.Reconfigure(tight)
	if err != nil {
		t.Fatal(err)
	}
	net.Engine.RunUntil(txn.CommitTime())
	rc := []*flows.Spec{
		flows.Background(2000, ethernet.ClassRC, 100, 102, 3300, 20*ethernet.Mbps),
		flows.Background(2001, ethernet.ClassRC, 100, 102, 3301, 20*ethernet.Mbps),
	}
	if err := core.BindPaths(topo, rc); err != nil {
		t.Fatal(err)
	}
	before := netState(net)
	err = net.AddFlows(rc, net.Engine.Now())
	if err == nil || !strings.Contains(err.Error(), "switch 0 meter table needs 2 more slots, has room for 1") {
		t.Fatalf("err = %v", err)
	}
	if after := netState(net); after != before {
		t.Fatal("rejected AddFlows changed the network")
	}
	if err := net.AddFlows(rc[:1], net.Engine.Now()); err != nil {
		t.Fatalf("one meter fits: %v", err)
	}
	if got := net.prog.nextMeter; got[0] != 1 || got[1] != 1 || got[2] != 1 || got[3] != 0 {
		t.Fatalf("per-switch meter cursor = %v", got)
	}
}
