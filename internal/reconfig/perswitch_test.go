package reconfig

import (
	"fmt"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

// derivedLine is a 4-switch line whose switches carry 3, 5, 5 and 3 of
// 6 flows, built from the derived design with every carried entry
// installed (tables exactly full).
func derivedLine(t *testing.T) (*sim.Engine, *core.Design, Bindings, core.Config) {
	t.Helper()
	topo := topology.Linear(4)
	for h := 0; h < 4; h++ {
		topo.AttachHost(100+h, h)
	}
	ends := [][2]int{{0, 1}, {0, 2}, {0, 3}, {1, 2}, {1, 3}, {2, 3}}
	specs := flows.GenerateTS(flows.TSParams{
		Count: len(ends), Period: 10 * sim.Millisecond, WireSize: 64, VID: 1,
		Hosts: func(i int) (int, int) { return 100 + ends[i][0], 100 + ends[i][1] },
		Seed:  1,
	})
	for i, s := range specs {
		s.VID = uint16(1 + i)
	}
	if err := core.BindPaths(topo, specs); err != nil {
		t.Fatal(err)
	}
	der, err := core.DeriveConfig(core.Scenario{Topo: topo, Flows: specs})
	if err != nil {
		t.Fatal(err)
	}
	design, err := der.Design(nil)
	if err != nil {
		t.Fatal(err)
	}
	engine := sim.NewEngine()
	b := Bindings{Design: design}
	for s, want := range []int{3, 5, 5, 3} {
		sw := tsnswitch.New(engine, design.SwitchConfig(s, topo.PortCount(s)))
		if got := sw.Config().UnicastSize; got != want {
			t.Fatalf("switch %d built with %d entries, want %d", s, got, want)
		}
		b.Switches = append(b.Switches, sw)
	}
	for i, spec := range specs {
		for _, s := range spec.Path {
			if err := b.Switches[s].Forward().Unicast.Add(ethernet.HostMAC(spec.DstHost), spec.VID, 0); err != nil {
				t.Fatalf("flow %d switch %d: %v", i, s, err)
			}
		}
	}
	return engine, design, b, der.Config
}

func sizes(b Bindings) string {
	var out []string
	for _, sw := range b.Switches {
		c := sw.Config()
		out = append(out, fmt.Sprintf("%d/%d/%d", c.UnicastSize, c.ClassSize, c.MeterSize))
	}
	return strings.Join(out, " ")
}

// TestPerSwitchApplyRevertValidate: each switch is checked and staged
// against its own share of the candidate and resized to it, and a
// failed commit reverts each applied operation to the sizes it replaced.
func TestPerSwitchApplyRevertValidate(t *testing.T) {
	engine, design, b, old := derivedLine(t)
	ctrl := NewController(engine, nil)
	derived := sizes(b)
	if derived != "3/3/3 5/5/5 5/5/5 3/3/3" {
		t.Fatalf("derived sizes: %s", derived)
	}
	cand := old
	cand.UnicastSize, cand.ClassSize, cand.MeterSize = 10, 8, 7 // network-wide 6 → 10/8/7

	txn, err := ctrl.Begin(old, cand, b)
	if err != nil {
		t.Fatal(err)
	}
	ops := txn.Ops()
	if len(ops) != 4*3 || ops[0] != "sw0:set_switch_tbl" || ops[11] != "sw3:set_meter_tbl" {
		t.Fatalf("staged ops: %v", ops)
	}
	for k := range ops {
		ctrl.Arm(k, Retries+1, false)
		txn, err := ctrl.Begin(old, cand, b)
		if err != nil {
			t.Fatal(err)
		}
		resolve(engine, txn)
		if txn.State() != StateRolledBack || sizes(b) != derived {
			t.Fatalf("failure before op %d: %v, switches %s, want %s", k, txn.State(), sizes(b), derived)
		}
	}
	txn.Commit()
	if want := "7/5/4 9/7/6 9/7/6 7/5/4"; txn.State() != StateCommitted || sizes(b) != want {
		t.Fatalf("commit: %v, switches %s, want %s", txn.State(), sizes(b), want)
	}
	for s, sw := range b.Switches {
		if c, l := sw.Config(), design.Local(cand, s); c.UnicastSize != l.UnicastSize || c.ClassSize != l.ClassSize || c.MeterSize != l.MeterSize {
			t.Fatalf("switch %d: %+v is not Local(new)", s, c)
		}
	}

	// Back to the derived configuration: every table exactly full again.
	back, err := ctrl.Begin(cand, old, b)
	if err != nil {
		t.Fatalf("return to derived rejected: %v", err)
	}
	back.Commit()
	if sizes(b) != derived {
		t.Fatalf("A → B → A: %s, want %s", sizes(b), derived)
	}

	// One below the derived size: every switch is full, each is named
	// with its own share of the candidate.
	below := old
	below.UnicastSize--
	_, err = ctrl.Begin(old, below, b)
	for _, want := range []string{
		"switch 0 unicast table holds 3 entries > candidate size 2",
		"switch 1 unicast table holds 5 entries > candidate size 4",
		"switch 3 unicast table holds 3 entries > candidate size 2",
	} {
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err = %v, want %q", err, want)
		}
	}
}
