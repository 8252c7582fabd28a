package reconfig

import (
	"slices"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/frer"
	"github.com/tsnbuilder/tsnbuilder/internal/gate"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tables"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

// TestReconfigRejectionText pins Begin's whole error — the body of a
// 409 — for one below-occupancy candidate per class on two live
// switches, conflicts in two classes at once, a switch a wedged commit
// left off the live configuration, and a structural change riding along
// with a per-switch one. Line order is part of the contract: structural
// and immutable findings first, then switch by switch — its tables, then
// port by port (gates, CBS, buffers), then queues, buffer mode and slot.
func TestReconfigRejectionText(t *testing.T) {
	slot := 65 * sim.Microsecond
	list := func(masks ...gate.Mask) *gate.GCL {
		var es []gate.Entry
		for _, m := range masks {
			es = append(es, gate.Entry{Mask: m, Duration: slot})
		}
		return gate.NewGCL(es)
	}
	must := func(t *testing.T, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	alloc := func(t *testing.T, sw *tsnswitch.Switch, port, n int) {
		for i := 0; i < n; i++ {
			if _, ok := sw.Port(port).Pool().Alloc(64); !ok {
				t.Fatal("alloc failed")
			}
		}
	}
	// queue leaves n BE frames queued on port 1, which admits everything
	// and sends nothing.
	queue := func(t *testing.T, sw *tsnswitch.Switch, n int) {
		must(t, sw.SetPortSchedules(1, list(0xff, 0xff), list(0, 0)))
		must(t, sw.Forward().Unicast.Add(ethernet.HostMAC(7), 1, 1))
		for seq := 1; seq <= n; seq++ {
			sw.Port(0).Receive(&ethernet.Frame{
				Dst: ethernet.HostMAC(7), Src: ethernet.HostMAC(99), VID: 1, EtherType: ethernet.TypeTSN,
				Class: ethernet.ClassBE, FlowID: 1, Seq: uint32(seq), Payload: make([]byte, 46),
			}, nil)
		}
	}
	for _, tc := range []struct {
		name   string
		shared int // SMS pool size; 0 builds per-port pools
		live   func(t *testing.T, sw []*tsnswitch.Switch, b *Bindings)
		cand   func(c *core.Config)
		want   string
	}{
		{"set_switch_tbl", 0, func(t *testing.T, sw []*tsnswitch.Switch, _ *Bindings) {
			for i := 0; i < 3; i++ {
				must(t, sw[0].Forward().Unicast.Add(ethernet.HostMAC(i), 1, 0))
				must(t, sw[1].Forward().Unicast.Add(ethernet.HostMAC(i), 1, 0))
			}
			must(t, sw[0].Forward().Multicast.Add(1, 0b11))
			must(t, sw[0].Forward().Multicast.Add(2, 0b01))
		}, func(c *core.Config) { c.UnicastSize, c.MulticastSize = 2, 1 },
			"reconfig: switch 0 unicast table holds 3 entries > candidate size 2\n" +
				"reconfig: switch 0 multicast table holds 2 entries > candidate size 1\n" +
				"reconfig: switch 1 unicast table holds 3 entries > candidate size 2"},
		{"set_class_tbl", 0, func(t *testing.T, sw []*tsnswitch.Switch, _ *Bindings) {
			must(t, sw[1].Filter().Class.Add(tables.ClassKey{VID: 1}, tables.ClassEntry{}))
			must(t, sw[1].Filter().Class.Add(tables.ClassKey{VID: 2}, tables.ClassEntry{}))
		}, func(c *core.Config) { c.ClassSize = 1 },
			"reconfig: switch 1 classification table holds 2 entries > candidate size 1"},
		{"set_meter_tbl", 0, func(t *testing.T, sw []*tsnswitch.Switch, _ *Bindings) {
			must(t, sw[0].Filter().Meters.Configure(5, ethernet.Mbps, 1500))
		}, func(c *core.Config) { c.MeterSize = 4 },
			"reconfig: switch 0 meter 5 is configured, candidate size 4 too small"},
		{"set_gate_tbl", 0, func(t *testing.T, sw []*tsnswitch.Switch, _ *Bindings) {
			three := list(0xff, 0x7f, 0x3f)
			must(t, sw[0].SetPortSchedules(0, three, three))
			must(t, sw[0].SetPortSchedules(1, three, three))
		}, func(c *core.Config) { c.GateSize = 2 },
			"reconfig: switch 0 port 0 schedules (3/3 entries) exceed candidate gate size 2\n" +
				"reconfig: switch 0 port 1 schedules (3/3 entries) exceed candidate gate size 2"},
		{"set_cbs_tbl", 0, func(t *testing.T, sw []*tsnswitch.Switch, _ *Bindings) {
			must(t, sw[0].Bank(0).Attach(0, 2))
			must(t, sw[0].Bank(0).Attach(1, 0))
			must(t, sw[0].Bank(1).Attach(2, 2))
		}, func(c *core.Config) { c.CBSMapSize, c.CBSSize = 1, 2 },
			"reconfig: switch 0 port 0 has 2 CBS bindings > candidate map size 1\n" +
				"reconfig: switch 0 port 0 CBS 2 is live, candidate size 2 too small\n" +
				"reconfig: switch 0 port 1 CBS 2 is live, candidate size 2 too small"},
		{"set_queues", 0, func(t *testing.T, sw []*tsnswitch.Switch, _ *Bindings) {
			queue(t, sw[1], 3)
		}, func(c *core.Config) { c.QueueDepth = 2 },
			"reconfig: switch 1 queue holds 3 descriptors > candidate depth 2"},
		{"set_buffers", 0, func(t *testing.T, sw []*tsnswitch.Switch, _ *Bindings) {
			alloc(t, sw[0], 0, 3)
			alloc(t, sw[0], 1, 2)
		}, func(c *core.Config) { c.BufferNum = 1 },
			"reconfig: switch 0 port 0 holds 3 live buffers > candidate buffer_num 1\n" +
				"reconfig: switch 0 port 1 holds 2 live buffers > candidate buffer_num 1"},
		{"set_buffers on a shared pool", 64, func(*testing.T, []*tsnswitch.Switch, *Bindings) {},
			func(c *core.Config) { c.BufferNum = 128 },
			"reconfig: switch 0 uses a shared (SMS) pool; buffer_num is not live-reconfigurable\n" +
				"reconfig: switch 1 uses a shared (SMS) pool; buffer_num is not live-reconfigurable"},
		{"rebase_slot on non-CQF schedules", 0, func(t *testing.T, sw []*tsnswitch.Switch, _ *Bindings) {
			in, _ := sw[1].PortSchedules(0)
			must(t, sw[1].SetPortSchedules(0, in, gate.AlwaysOpen(2*slot)))
		}, func(c *core.Config) { c.SlotSize = 2 * slot },
			"reconfig: switch 1 carries synthesized (non-CQF) schedules; slot_size is not live-reconfigurable"},
		{"set_frer_tbl", 0, func(t *testing.T, _ []*tsnswitch.Switch, b *Bindings) {
			tbl := frer.NewTable(2, 16)
			must(t, tbl.Register(1))
			must(t, tbl.Register(2))
			b.FRER = []*frer.Table{tbl}
		}, func(c *core.Config) { c.FRERSize = 1 },
			"reconfig: FRER table 0 holds 2 streams > candidate frer_size 1"},
		{"set_cbs_tbl and set_buffers on two ports", 0, func(t *testing.T, sw []*tsnswitch.Switch, _ *Bindings) {
			must(t, sw[0].Bank(0).Attach(0, 2))
			alloc(t, sw[0], 1, 2)
		}, func(c *core.Config) { c.CBSSize, c.BufferNum = 2, 1 },
			"reconfig: switch 0 port 0 CBS 2 is live, candidate size 2 too small\n" +
				"reconfig: switch 0 port 1 holds 2 live buffers > candidate buffer_num 1"},
		{"set_gate_tbl and set_cbs_tbl on interleaved ports", 0, func(t *testing.T, sw []*tsnswitch.Switch, _ *Bindings) {
			three := list(0xff, 0x7f, 0x3f)
			for p := 0; p < 2; p++ {
				must(t, sw[0].SetPortSchedules(p, three, three))
				must(t, sw[0].Bank(p).Attach(p, 2))
			}
		}, func(c *core.Config) { c.GateSize, c.CBSSize = 2, 2 },
			"reconfig: switch 0 port 0 schedules (3/3 entries) exceed candidate gate size 2\n" +
				"reconfig: switch 0 port 0 CBS 2 is live, candidate size 2 too small\n" +
				"reconfig: switch 0 port 1 schedules (3/3 entries) exceed candidate gate size 2\n" +
				"reconfig: switch 0 port 1 CBS 2 is live, candidate size 2 too small"},
		{"set_queues and set_buffers", 0, func(t *testing.T, sw []*tsnswitch.Switch, _ *Bindings) {
			queue(t, sw[1], 3)
			alloc(t, sw[1], 1, 2)
		}, func(c *core.Config) { c.QueueDepth, c.BufferNum = 2, 2 },
			"reconfig: switch 1 port 1 holds 5 live buffers > candidate buffer_num 2\n" +
				"reconfig: switch 1 queue holds 3 descriptors > candidate depth 2"},
		{"a switch left deeper than the live configuration", 0, func(t *testing.T, sw []*tsnswitch.Switch, _ *Bindings) {
			// As a wedged commit leaves it: switch 1 grew its queues alone
			// and filled them past the depth every other switch holds.
			must(t, sw[1].Resize(tsnswitch.Queues, [2]int{16}))
			queue(t, sw[1], 12)
		}, func(c *core.Config) { c.MeterSize = 32 },
			"reconfig: switch 1 queue holds 12 descriptors > candidate depth 8"},
		{"link_rate and set_meter_tbl on both switches", 0, func(t *testing.T, sw []*tsnswitch.Switch, _ *Bindings) {
			must(t, sw[0].Filter().Meters.Configure(5, ethernet.Mbps, 1500))
			must(t, sw[1].Filter().Meters.Configure(7, ethernet.Mbps, 1500))
		}, func(c *core.Config) { c.LinkRate, c.MeterSize = 100*ethernet.Mbps, 4 },
			"reconfig: link_rate 1000000000 → 100000000 requires regeneration, not live reconfiguration\n" +
				"reconfig: switch 0 meter 5 is configured, candidate size 4 too small\n" +
				"reconfig: switch 1 meter 7 is configured, candidate size 4 too small"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			old := baseCfg()
			old.GateSize, old.FRERSize, old.FRERHistory = 4, 2, 16
			engine := sim.NewEngine()
			var b Bindings
			for id := 0; id < 2; id++ {
				c := switchCfg(old)
				c.ID, c.SharedBufferNum = id, tc.shared
				b.Switches = append(b.Switches, tsnswitch.New(engine, c))
			}
			tc.live(t, b.Switches, &b)
			cand := old
			tc.cand(&cand)
			txn, err := NewController(engine, nil).Begin(old, cand, b)
			if err == nil {
				t.Fatalf("candidate accepted, staging %v", txn.Ops())
			}
			if got := err.Error(); got != tc.want {
				t.Fatalf("rejection text:\n%s\nwant:\n%s", got, tc.want)
			}
		})
	}
}

// TestEveryClassStagesOneOpPerSwitch grows each row of core.Classes
// alone, through the row's own parameters: every live-resizable class
// stages exactly one operation per switch under its API name, commits,
// and leaves each switch holding the candidate (Verify); set_frer_tbl
// stages one per FRER table.
func TestEveryClassStagesOneOpPerSwitch(t *testing.T) {
	for _, r := range core.Classes {
		t.Run(r.API, func(t *testing.T) {
			old := baseCfg()
			old.FRERSize, old.FRERHistory = 2, 16
			engine := sim.NewEngine()
			b := Bindings{FRER: []*frer.Table{frer.NewTable(2, 16), frer.NewTable(2, 16)}}
			for id := 0; id < 3; id++ {
				c := switchCfg(old)
				c.ID = id
				b.Switches = append(b.Switches, tsnswitch.New(engine, c))
			}
			cand := old
			for _, p := range r.Params[:max(r.Sized, 1)] {
				*p.Of(&cand) += 2
			}
			ctrl := NewController(engine, nil)
			txn, err := ctrl.Begin(old, cand, b)
			if err != nil {
				t.Fatal(err)
			}
			want := []string{"sw0:" + r.API, "sw1:" + r.API, "sw2:" + r.API}
			if r.Sized == 0 {
				want = []string{"frer0:" + r.API, "frer1:" + r.API}
			}
			if got := txn.Ops(); !slices.Equal(got, want) {
				t.Fatalf("staged %v, want %v", got, want)
			}
			txn.Commit()
			if txn.State() != StateCommitted {
				t.Fatalf("%v: %v", txn.State(), txn.Err())
			}
			for _, sw := range b.Switches {
				if err := Verify(sw, cand); err != nil {
					t.Fatal(err)
				}
			}
		})
	}
}
