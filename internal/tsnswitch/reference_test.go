package tsnswitch

import (
	"fmt"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/gate"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tables"
)

// The fourteen per-class methods Fit and Resize replaced, kept verbatim
// as the oracle TestFitResizeMatchesReference drives beside them.

// FitSwitchTbl is ResizeSwitchTbl's check: the installed routes.
func (sw *Switch) FitSwitchTbl(unicast, multicast int) (m []Misfit) {
	if n := sw.fwd.Unicast.Len(); n > unicast {
		m = sw.misfit(m, -1, "unicast table holds %d entries > candidate size %d", n, unicast)
	}
	if n := sw.fwd.Multicast.Len(); n > multicast {
		m = sw.misfit(m, -1, "multicast table holds %d entries > candidate size %d", n, multicast)
	}
	return m
}

// ResizeSwitchTbl resizes the unicast/multicast switch tables
// (set_switch_tbl) without disturbing installed routes.
func (sw *Switch) ResizeSwitchTbl(unicast, multicast int) error {
	if m := sw.FitSwitchTbl(unicast, multicast); m != nil {
		return m[0]
	}
	resized(sw.fwd.Unicast.Resize(unicast))
	resized(sw.fwd.Multicast.Resize(multicast))
	sw.cfg.UnicastSize, sw.cfg.MulticastSize = unicast, multicast
	return nil
}

// FitClassTbl is ResizeClassTbl's check: the installed entries.
func (sw *Switch) FitClassTbl(size int) (m []Misfit) {
	if n := sw.flt.Class.Len(); n > size {
		m = sw.misfit(m, -1, "classification table holds %d entries > candidate size %d", n, size)
	}
	return m
}

// ResizeClassTbl resizes the classification table (set_class_tbl).
func (sw *Switch) ResizeClassTbl(size int) error {
	if m := sw.FitClassTbl(size); m != nil {
		return m[0]
	}
	resized(sw.flt.Class.Resize(size))
	sw.cfg.ClassSize = size
	return nil
}

// FitMeterTbl is ResizeMeterTbl's check: the configured meters.
func (sw *Switch) FitMeterTbl(size int) (m []Misfit) {
	if req := sw.flt.Meters.RequiredCapacity(); req > size {
		m = sw.misfit(m, -1, "meter %d is configured, candidate size %d too small", req-1, size)
	}
	return m
}

// ResizeMeterTbl resizes the meter table (set_meter_tbl), preserving
// configured meters and their token state.
func (sw *Switch) ResizeMeterTbl(size int) error {
	if m := sw.FitMeterTbl(size); m != nil {
		return m[0]
	}
	resized(sw.flt.Meters.Resize(size))
	sw.cfg.MeterSize = size
	return nil
}

// FitGateSize is SetGateSize's check: every port's installed schedules.
func (sw *Switch) FitGateSize(size int) (m []Misfit) {
	for _, p := range sw.ports {
		if in, out := p.gates[dirIn].Size(), p.gates[dirOut].Size(); in > size || out > size {
			m = sw.misfit(m, p.id, "port %d schedules (%d/%d entries) exceed candidate gate size %d", p.id, in, out, size)
		}
	}
	return m
}

// SetGateSize changes the gate table budget (set_gate_tbl); CQF needs 2.
func (sw *Switch) SetGateSize(size int) error {
	if size < 2 {
		return fmt.Errorf("tsnswitch: gate size %d < 2 (CQF needs 2)", size)
	}
	if m := sw.FitGateSize(size); m != nil {
		return m[0]
	}
	sw.cfg.GateSize = size
	return nil
}

// FitCBS is ResizeCBS's check: every port's bindings and live shapers.
func (sw *Switch) FitCBS(mapSize, cbsSize int) (m []Misfit) {
	for _, p := range sw.ports {
		if n := p.bank.MapLen(); n > mapSize {
			m = sw.misfit(m, p.id, "port %d has %d CBS bindings > candidate map size %d", p.id, n, mapSize)
		}
		if req := p.bank.RequiredSize(); req > cbsSize {
			m = sw.misfit(m, p.id, "port %d CBS %d is live, candidate size %d too small", p.id, req-1, cbsSize)
		}
	}
	return m
}

// ResizeCBS resizes every port's CBS MAP and CBS tables (set_cbs_tbl),
// preserving bindings, slopes and credit.
func (sw *Switch) ResizeCBS(mapSize, cbsSize int) error {
	if m := sw.FitCBS(mapSize, cbsSize); m != nil {
		return m[0]
	}
	for _, p := range sw.ports {
		resized(p.bank.Resize(mapSize, cbsSize))
	}
	sw.cfg.CBSMapSize, sw.cfg.CBSSize = mapSize, cbsSize
	return nil
}

// FitQueues is ResizeQueues' check: the deepest queue backlog.
func (sw *Switch) FitQueues(depth int) (m []Misfit) {
	most := 0
	for _, p := range sw.ports {
		for _, q := range p.queues {
			most = max(most, q.Len())
		}
	}
	if most > depth {
		m = sw.misfit(m, len(sw.ports), "queue holds %d descriptors > candidate depth %d", most, depth)
	}
	return m
}

// ResizeQueues changes every queue's descriptor depth (set_queues),
// preserving queued descriptors.
func (sw *Switch) ResizeQueues(depth int) error {
	if depth <= 0 {
		return fmt.Errorf("tsnswitch: non-positive queue depth %d", depth)
	}
	if m := sw.FitQueues(depth); m != nil {
		return m[0]
	}
	for _, p := range sw.ports {
		for _, queue := range p.queues {
			resized(queue.Resize(depth))
		}
	}
	sw.cfg.QueueDepth = depth
	return nil
}

// FitBuffers is ResizeBuffers' check: every per-port pool's live slots
// (allocated plus fault-reserved). A shared (SMS) pool has no per-port
// count to change.
func (sw *Switch) FitBuffers(perPort int) (m []Misfit) {
	if sw.cfg.SharedBufferNum > 0 {
		return sw.misfit(m, len(sw.ports), "uses a shared (SMS) pool; buffer_num is not live-reconfigurable")
	}
	for _, p := range sw.ports {
		if live := p.pool.InUse() + p.pool.Reserved(); live > perPort {
			m = sw.misfit(m, p.id, "port %d holds %d live buffers > candidate buffer_num %d", p.id, live, perPort)
		}
	}
	return m
}

// ResizeBuffers changes every per-port buffer pool's capacity
// (set_buffers).
func (sw *Switch) ResizeBuffers(perPort int) error {
	if perPort <= 0 {
		return fmt.Errorf("tsnswitch: non-positive buffer count %d", perPort)
	}
	if m := sw.FitBuffers(perPort); m != nil {
		return m[0]
	}
	for _, p := range sw.ports {
		resized(p.pool.Resize(perPort))
	}
	sw.cfg.BuffersPerPort = perPort
	return nil
}

// referenceRows are the per-class methods by row, as core.Classes
// called them.
var referenceRows = [Rows]struct {
	fit    func(sw *Switch, n [2]int) []Misfit
	resize func(sw *Switch, n [2]int) error
}{
	SwitchTbl: {func(sw *Switch, n [2]int) []Misfit { return sw.FitSwitchTbl(n[0], n[1]) },
		func(sw *Switch, n [2]int) error { return sw.ResizeSwitchTbl(n[0], n[1]) }},
	ClassTbl: {func(sw *Switch, n [2]int) []Misfit { return sw.FitClassTbl(n[0]) },
		func(sw *Switch, n [2]int) error { return sw.ResizeClassTbl(n[0]) }},
	MeterTbl: {func(sw *Switch, n [2]int) []Misfit { return sw.FitMeterTbl(n[0]) },
		func(sw *Switch, n [2]int) error { return sw.ResizeMeterTbl(n[0]) }},
	GateTbl: {func(sw *Switch, n [2]int) []Misfit { return sw.FitGateSize(n[0]) },
		func(sw *Switch, n [2]int) error { return sw.SetGateSize(n[0]) }},
	CBSTbl: {func(sw *Switch, n [2]int) []Misfit { return sw.FitCBS(n[0], n[1]) },
		func(sw *Switch, n [2]int) error { return sw.ResizeCBS(n[0], n[1]) }},
	Queues: {func(sw *Switch, n [2]int) []Misfit { return sw.FitQueues(n[0]) },
		func(sw *Switch, n [2]int) error { return sw.ResizeQueues(n[0]) }},
	Buffers: {func(sw *Switch, n [2]int) []Misfit { return sw.FitBuffers(n[0]) },
		func(sw *Switch, n [2]int) error { return sw.ResizeBuffers(n[0]) }},
}

// seededSwitch builds a switch holding a seeded amount of live state:
// routes, classification entries, meters and gate lists of 1–4 entries
// (the longest on port 0's ingress); for two seeds in three also CBS
// bindings and shapers, BE frames held behind port 1's closed egress
// gate, and allocated and fault-reserved buffers, so the third seed
// reaches the size-argument errors. One seed in four builds a shared
// (SMS) pool.
func seededSwitch(t *testing.T, seed int64) *Switch {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	cfg := testConfig()
	cfg.GateSize, cfg.CBSMapSize, cfg.CBSSize = 4, 4, 4
	if seed%4 == 0 {
		cfg.SharedBufferNum = 64
	}
	sw := New(sim.NewEngine(), cfg)
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := rng.Intn(cfg.UnicastSize - 1); i > 0; i-- {
		must(sw.Forward().Unicast.Add(ethernet.HostMAC(100+i), 1, 0))
	}
	for i := rng.Intn(cfg.MulticastSize + 1); i > 0; i-- {
		must(sw.Forward().Multicast.Add(uint16(i), 0b11))
	}
	for i := rng.Intn(cfg.ClassSize + 1); i > 0; i-- {
		must(sw.Filter().Class.Add(tables.ClassKey{VID: uint16(i)}, tables.ClassEntry{}))
	}
	for i := rng.Intn(3); i > 0; i-- {
		must(sw.Filter().Meters.Configure(rng.Intn(cfg.MeterSize), ethernet.Mbps, 1500))
	}
	longest := 1 + rng.Intn(cfg.GateSize)
	list := func(mask gate.Mask, n int) *gate.GCL {
		es := make([]gate.Entry, n)
		for i := range es {
			es[i] = gate.Entry{Mask: mask, Duration: cfg.SlotSize}
		}
		return gate.NewGCL(es)
	}
	must(sw.SetPortSchedules(0, list(0xff, longest), list(0xff, 1+rng.Intn(longest))))
	must(sw.SetPortSchedules(1, list(0xff, 1+rng.Intn(longest)), list(0, 1+rng.Intn(longest))))
	if seed%3 == 0 {
		return sw
	}
	for p := range cfg.Ports {
		for i := rng.Intn(cfg.CBSMapSize + 1); i > 0; i-- {
			must(sw.Bank(p).Attach(rng.Intn(cfg.QueuesPerPort), rng.Intn(cfg.CBSSize)))
		}
		if rng.Intn(2) == 0 {
			must(sw.Bank(p).Configure(rng.Intn(cfg.CBSSize), ethernet.Mbps, cfg.LinkRate))
		}
	}
	must(sw.Forward().Unicast.Add(ethernet.HostMAC(7), 1, 1))
	for seq := rng.Intn(cfg.QueueDepth + 1); seq > 0; seq-- {
		sw.Port(0).Receive(&ethernet.Frame{
			Dst: ethernet.HostMAC(7), Src: ethernet.HostMAC(99), VID: 1, EtherType: ethernet.TypeTSN,
			Class: ethernet.ClassBE, FlowID: 1, Seq: uint32(seq), Payload: make([]byte, 46),
		}, nil)
	}
	for p := range cfg.Ports {
		for i := rng.Intn(8); i > 0; i-- {
			sw.Port(p).Pool().Alloc(64)
		}
		sw.Port(p).Pool().Reserve(rng.Intn(4))
	}
	return sw
}

// occupancy is row's live occupancy on sw: the smallest sizes Fit
// accepts.
func occupancy(sw *Switch, row int) (k [2]int) {
	for _, p := range sw.ports {
		switch row {
		case SwitchTbl:
			k = [2]int{sw.fwd.Unicast.Len(), sw.fwd.Multicast.Len()}
		case ClassTbl:
			k[0] = sw.flt.Class.Len()
		case MeterTbl:
			k[0] = sw.flt.Meters.RequiredCapacity()
		case GateTbl:
			k[0] = max(k[0], p.gates[dirIn].Size(), p.gates[dirOut].Size())
		case CBSTbl:
			k = [2]int{max(k[0], p.bank.MapLen()), max(k[1], p.bank.RequiredSize())}
		case Queues:
			for _, q := range p.queues {
				k[0] = max(k[0], q.Len())
			}
		case Buffers:
			k[0] = max(k[0], p.pool.InUse()+p.pool.Reserved())
		}
	}
	return k
}

// misfits prints each misfit with its At.
func misfits(m []Misfit) string {
	var b strings.Builder
	for _, x := range m {
		fmt.Fprintf(&b, "%d: %v\n", x.At, x)
	}
	return b.String()
}

// TestFitResizeMatchesReference drives Fit and Resize on one seeded
// switch and the per-class methods they replaced on an identical one,
// row by row, at every candidate n ∈ {k−1, k, k+1} around the live
// occupancy k (both sizes of a two-size row): the misfits, their At and
// the Resize errors must be equal, the two Configs must stay equal, and
// a refused Resize must leave the Config it found.
func TestFitResizeMatchesReference(t *testing.T) {
	refused := 0
	for seed := int64(1); seed <= 24; seed++ {
		got, ref := seededSwitch(t, seed), seededSwitch(t, seed)
		for row := range Rows {
			k, dims := occupancy(got, row), 1
			if row == SwitchTbl || row == CBSTbl {
				dims = 2
			}
			for i := range 9 {
				n := [2]int{k[0] + i%3 - 1}
				if dims == 2 {
					n[1] = k[1] + i/3 - 1
				} else if i >= 3 {
					break
				}
				if g, r := misfits(got.Fit(row, n)), misfits(referenceRows[row].fit(ref, n)); g != r {
					t.Fatalf("seed %d row %d Fit(%v):\n%s\nreference:\n%s", seed, row, n, g, r)
				}
				before := got.Config()
				gerr, rerr := got.Resize(row, n), referenceRows[row].resize(ref, n)
				if fmt.Sprint(gerr) != fmt.Sprint(rerr) {
					t.Fatalf("seed %d row %d Resize(%v) = %v, reference %v", seed, row, n, gerr, rerr)
				}
				if gerr != nil {
					refused++
					if !reflect.DeepEqual(got.Config(), before) {
						t.Fatalf("seed %d row %d: refused Resize(%v) changed the Config", seed, row, n)
					}
				}
				if !reflect.DeepEqual(got.Config(), ref.Config()) {
					t.Fatalf("seed %d row %d Resize(%v): Config %+v, reference %+v", seed, row, n, got.Config(), ref.Config())
				}
			}
		}
	}
	if refused == 0 {
		t.Fatal("no candidate was refused")
	}
}
