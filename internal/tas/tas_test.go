package tas

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// ringWorkload builds a ring with hosts and n TS flows of the given
// hop count.
func ringWorkload(t *testing.T, n, hops int, period sim.Time) (*topology.Topology, []*flows.Spec) {
	t.Helper()
	topo := topology.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h)
	}
	specs := flows.GenerateTS(flows.TSParams{
		Count: n, Period: period, WireSize: 64, VID: 1,
		Hosts: func(i int) (int, int) {
			src := i % 6
			return 100 + src, 100 + (src+hops-1)%6
		},
		Seed: 5,
	})
	for i, s := range specs {
		s.VID = uint16(1 + i)
	}
	if err := topoBind(topo, specs); err != nil {
		t.Fatal(err)
	}
	return topo, specs
}

func topoBind(topo *topology.Topology, specs []*flows.Spec) error {
	for _, s := range specs {
		p, err := topo.Router().HostPath(s.SrcHost, s.DstHost)
		if err != nil {
			return err
		}
		s.Path = p
	}
	return nil
}

func TestSynthesizeBasic(t *testing.T) {
	topo, specs := ringWorkload(t, 32, 3, 10*sim.Millisecond)
	sch, err := Synthesize(specs, topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sch.Cycle != 10*sim.Millisecond {
		t.Fatalf("cycle = %v", sch.Cycle)
	}
	if len(sch.Offsets) != 32 {
		t.Fatalf("offsets = %d", len(sch.Offsets))
	}
	if sch.MaxGateEntries <= 2 {
		t.Fatalf("MaxGateEntries = %d, expected more than CQF's 2", sch.MaxGateEntries)
	}
}

func TestWindowsDisjointWithGuard(t *testing.T) {
	topo, specs := ringWorkload(t, 64, 4, 10*sim.Millisecond)
	sch, err := Synthesize(specs, topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for pk, ws := range sch.Windows {
		for i := 1; i < len(ws); i++ {
			gap := ws[i].Start - ws[i-1].End
			if gap < sch.GuardBand {
				t.Fatalf("%v: windows %d/%d separated by %v < guard %v",
					pk, i-1, i, gap, sch.GuardBand)
			}
		}
	}
}

func TestHopProgression(t *testing.T) {
	// Each hop's window must start after the previous hop's window
	// ends (frame must have fully arrived).
	topo, specs := ringWorkload(t, 8, 3, sim.Millisecond)
	sch, err := Synthesize(specs, topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, s := range specs {
		var prevEnd sim.Time = -1
		for h := range s.Path {
			hop, err := topo.Egress(s.Path, s.DstHost, h)
			if err != nil {
				t.Fatal(err)
			}
			pk := PortKey{Switch: hop.Switch, Port: hop.Port}
			var mine *Window
			for i := range sch.Windows[pk] {
				if sch.Windows[pk][i].FlowID == s.ID {
					mine = &sch.Windows[pk][i]
					break
				}
			}
			if mine == nil {
				t.Fatalf("flow %d missing window on %v", s.ID, pk)
			}
			if mine.Start < prevEnd {
				t.Fatalf("flow %d window starts %v before previous hop ended %v",
					s.ID, mine.Start, prevEnd)
			}
			prevEnd = mine.End
		}
	}
}

func TestOffsetsWithinPeriod(t *testing.T) {
	topo, specs := ringWorkload(t, 32, 2, 2*sim.Millisecond)
	sch, err := Synthesize(specs, topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	sch.Apply(specs)
	for _, s := range specs {
		if s.Offset < 0 || s.Offset >= s.Period {
			t.Fatalf("flow %d offset %v outside period", s.ID, s.Offset)
		}
		if err := s.Validate(); err != nil {
			t.Fatal(err)
		}
	}
}

func TestMixedPeriodsHyperperiod(t *testing.T) {
	topo, specs := ringWorkload(t, 8, 2, 2*sim.Millisecond)
	for i, s := range specs {
		if i%2 == 0 {
			s.Period = 4 * sim.Millisecond
		}
	}
	sch, err := Synthesize(specs, topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if sch.Cycle != 4*sim.Millisecond {
		t.Fatalf("cycle = %v, want lcm 4ms", sch.Cycle)
	}
	// 2 ms flows appear twice per cycle on their first-hop port.
	counts := map[uint32]int{}
	for _, ws := range sch.Windows {
		for _, w := range ws {
			counts[w.FlowID]++
		}
	}
	for _, s := range specs {
		want := len(s.Path)
		if s.Period == 2*sim.Millisecond {
			want *= 2
		}
		if counts[s.ID] != want {
			t.Fatalf("flow %d (period %v): %d windows, want %d",
				s.ID, s.Period, counts[s.ID], want)
		}
	}
}

func TestGCLCompilation(t *testing.T) {
	topo, specs := ringWorkload(t, 16, 3, sim.Millisecond)
	sch, err := Synthesize(specs, topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for pk := range sch.Windows {
		in, out, err := sch.GCLs(pk, 7, 6)
		if err != nil {
			t.Fatal(err)
		}
		if in.Cycle() != sch.Cycle || out.Cycle() != sch.Cycle {
			t.Fatalf("GCL cycles %v/%v != %v", in.Cycle(), out.Cycle(), sch.Cycle)
		}
		// The in-list admits everything always.
		for _, at := range []sim.Time{0, sch.Cycle / 3, sch.Cycle - 1} {
			if in.StateAt(at) != 0xffff {
				t.Fatal("TAS in-gate not always open")
			}
		}
		// Inside each window only the TS queues are open; in the guard
		// band before it nothing is.
		for _, w := range sch.Windows[pk] {
			mid := (w.Start + w.End) / 2
			st := out.StateAt(mid)
			if !st.Open(7) || !st.Open(6) || st.Open(0) || st.Open(5) {
				t.Fatalf("%v: window mask wrong: %b", pk, st)
			}
			if w.Start >= sch.GuardBand {
				g := out.StateAt(w.Start - 1)
				if g != 0 {
					t.Fatalf("%v: guard band mask %b, want closed", pk, g)
				}
			}
		}
	}
}

func TestWorstCaseLatency(t *testing.T) {
	topo, specs := ringWorkload(t, 4, 3, sim.Millisecond)
	sch, err := Synthesize(specs, topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	wc, err := sch.WorstCaseLatency(specs[0], topo)
	if err != nil {
		t.Fatal(err)
	}
	// 3 hops of (0.672µs tx + 2µs guard + 0.1µs cable) + injection
	// ≈ 9µs — far below CQF's 3×65µs.
	if wc <= 0 || wc > 20*sim.Microsecond {
		t.Fatalf("worst-case latency = %v", wc)
	}
}

func TestSynthesizeErrors(t *testing.T) {
	topo := topology.Ring(3)
	topo.AttachHost(100, 0)
	topo.AttachHost(101, 1)
	noPath := &flows.Spec{ID: 1, Class: ethernet.ClassTS, WireSize: 64, Period: sim.Millisecond}
	if _, err := Synthesize([]*flows.Spec{noPath}, topo, Options{}); err == nil {
		t.Error("flow without path accepted")
	}
	// Saturated: more flows than one period can hold windows for.
	var many []*flows.Spec
	for i := 0; i < 64; i++ {
		many = append(many, &flows.Spec{
			ID: uint32(i + 1), Class: ethernet.ClassTS, WireSize: 1500,
			Period: 100 * sim.Microsecond, SrcHost: 100, DstHost: 101,
			Path: []int{0, 1},
		})
	}
	if _, err := Synthesize(many, topo, Options{}); err == nil {
		t.Error("infeasible workload accepted")
	}
}

func TestNonTSIgnored(t *testing.T) {
	topo := topology.Ring(3)
	topo.AttachHost(100, 0)
	be := flows.Background(9, ethernet.ClassBE, 100, 100, 1, ethernet.Mbps)
	sch, err := Synthesize([]*flows.Spec{be}, topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(sch.Offsets) != 0 {
		t.Fatal("BE flow scheduled")
	}
}

func TestSourceSerialization(t *testing.T) {
	// Many flows from one source: injections must never overlap on the
	// tester NIC.
	topo := topology.Ring(3)
	topo.AttachHost(100, 0)
	topo.AttachHost(101, 1)
	// Each 1500 B window plus its guard band reserves ~26 µs of the
	// port timeline, so 25 flows fill about two thirds of the 1 ms
	// period — packed but feasible.
	var specs []*flows.Spec
	for i := 0; i < 25; i++ {
		specs = append(specs, &flows.Spec{
			ID: uint32(i + 1), Class: ethernet.ClassTS, WireSize: 1500,
			Period: sim.Millisecond, SrcHost: 100, DstHost: 101,
			Path: []int{0, 1},
		})
	}
	sch, err := Synthesize(specs, topo, Options{})
	if err != nil {
		t.Fatal(err)
	}
	tx := ethernet.TxTime(1500+ethernet.OverheadBytes, ethernet.Gbps)
	type iv struct{ s, e sim.Time }
	var ivs []iv
	for _, s := range specs {
		o := sch.Offsets[s.ID]
		ivs = append(ivs, iv{o, o + tx})
	}
	for i := range ivs {
		for j := i + 1; j < len(ivs); j++ {
			if ivs[i].s < ivs[j].e && ivs[j].s < ivs[i].e {
				t.Fatalf("injections overlap: %v and %v", ivs[i], ivs[j])
			}
		}
	}
}
