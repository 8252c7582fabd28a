package tsnswitch

import (
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/gate"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

func TestResizeRoundTrip(t *testing.T) {
	r := newRig(t, testConfig())
	sw := r.sw
	// Grow every resource class, then shrink back to the original.
	if err := sw.Resize(SwitchTbl, [2]int{128, 16}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Resize(ClassTbl, [2]int{128}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Resize(MeterTbl, [2]int{32}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Resize(CBSTbl, [2]int{4, 5}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Resize(Queues, [2]int{16}); err != nil {
		t.Fatal(err)
	}
	if err := sw.Resize(Buffers, [2]int{128}); err != nil {
		t.Fatal(err)
	}
	for _, err := range []error{
		sw.Resize(SwitchTbl, [2]int{64, 8}), sw.Resize(ClassTbl, [2]int{64}), sw.Resize(MeterTbl, [2]int{16}),
		sw.Resize(CBSTbl, [2]int{3, 3}), sw.Resize(Queues, [2]int{8}), sw.Resize(Buffers, [2]int{96}),
	} {
		if err != nil {
			t.Fatal(err)
		}
	}
}

func TestResizeSwitchTblRevertsOnPartialFailure(t *testing.T) {
	r := newRig(t, testConfig())
	sw := r.sw
	// Fill the multicast table so shrinking it below occupancy fails;
	// the already-resized unicast table must be restored.
	if err := sw.Forward().Multicast.Add(200, 0b11); err != nil {
		t.Fatal(err)
	}
	if err := sw.Resize(SwitchTbl, [2]int{128, 0}); err == nil {
		t.Fatal("want multicast shrink failure")
	}
	// Unicast capacity must still be the original 64: entry 65 fails.
	room := 64 - sw.Forward().Unicast.Len()
	for i := 0; i < room; i++ {
		if err := sw.Forward().Unicast.Add(ethernet.HostMAC(300+i), 2, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := sw.Forward().Unicast.Add(ethernet.HostMAC(999), 3, 0); err == nil {
		t.Fatal("unicast table grew despite failed transaction")
	}
}

func TestResizeBuffersRejectsBelowLive(t *testing.T) {
	r := newRig(t, testConfig())
	pool := r.sw.Port(0).Pool()
	if _, ok := pool.Alloc(64); !ok {
		t.Fatal("alloc failed")
	}
	if err := r.sw.Resize(Buffers, [2]int{0}); err == nil {
		t.Fatal("want shrink-below-live rejection")
	}
	if err := r.sw.Resize(Buffers, [2]int{8}); err != nil {
		t.Fatalf("shrink above live: %v", err)
	}
}

func TestSetGateSizeRejectsLiveSchedules(t *testing.T) {
	r := newRig(t, testConfig())
	if err := r.sw.Resize(GateTbl, [2]int{1}); err == nil {
		t.Fatal("gate size 1 must be rejected (< 2)")
	}
	if err := r.sw.Resize(GateTbl, [2]int{4}); err != nil {
		t.Fatal(err)
	}
}

func TestCQFSchedulesAndRebase(t *testing.T) {
	cfg := testConfig()
	r := newRig(t, cfg)
	if r.sw.FitRebase() != nil {
		t.Fatal("default build must carry CQF schedules")
	}
	if err := r.sw.RebaseCQF(130*sim.Microsecond, 0); err != nil {
		t.Fatal(err)
	}
	if got := r.sw.Config().SlotSize; got != 130*sim.Microsecond {
		t.Fatalf("slot = %v", got)
	}
	if r.sw.FitRebase() != nil {
		t.Fatal("rebase must keep CQF schedules")
	}
	// CQF is a shape — two equal entries — not a type: the gate-close
	// fault's stuck pair keeps it, anything InstallTAS loads (the open
	// list; unequal windows) does not, and a slot change is refused.
	slot := 130 * sim.Microsecond
	stuck := gate.NewGCL([]gate.Entry{{Mask: 0x3f, Duration: slot}, {Mask: 0x3f, Duration: slot}})
	if err := r.sw.SetPortSchedules(0, stuck, stuck); err != nil || r.sw.FitRebase() != nil {
		t.Fatalf("two equal entries must count as CQF (err %v)", err)
	}
	in, out := r.sw.PortSchedules(1)
	for name, g := range map[string]*gate.GCL{
		"open":    gate.AlwaysOpen(2 * slot),
		"unequal": gate.NewGCL([]gate.Entry{{Mask: 1, Duration: slot}, {Mask: 2, Duration: slot + 1}}),
	} {
		if err := r.sw.SetPortSchedules(1, in, g); err != nil || r.sw.FitRebase() == nil {
			t.Fatalf("%s list must not count as CQF (err %v)", name, err)
		}
		if err := r.sw.RebaseCQF(slot, 0); err == nil {
			t.Fatalf("rebase accepted with the %s list installed", name)
		}
	}
	if err := r.sw.SetPortSchedules(1, in, out); err != nil || r.sw.FitRebase() != nil {
		t.Fatalf("restoring the pair must restore CQF (err %v)", err)
	}
}

func TestAuditCleanAndLeak(t *testing.T) {
	r := newRig(t, testConfig())
	if v := r.sw.Audit(0); len(v) != 0 {
		t.Fatalf("clean switch reported %v", v)
	}
	if got := r.sw.Port(0).Pool().Leak(3); got != 3 {
		t.Fatalf("leaked %d, want 3", got)
	}
	v := r.sw.Audit(0)
	if len(v) == 0 {
		t.Fatal("leak not detected")
	}
	if v[0].Invariant != "buffer-conservation" {
		t.Fatalf("invariant = %q", v[0].Invariant)
	}
	if !strings.Contains(v[0].Detail, "port 0") {
		t.Fatalf("detail = %q", v[0].Detail)
	}
}

func TestDegradeShedsBEOnly(t *testing.T) {
	r := newRig(t, testConfig())
	r.sw.SetDegradeLevel(DegradeShedBE)
	be := tsFrame(1, 1)
	be.PCP, be.Class = 0, ethernet.ClassBE
	r.hosts[0].sendAt(0, be)
	r.hosts[0].sendAt(sim.Microsecond, tsFrame(1, 2))
	r.engine.RunUntil(sim.Second)
	st := r.sw.Stats()
	if st.Drops[DropDegraded] != 1 {
		t.Fatalf("degraded drops = %d, want 1 (BE)", st.Drops[DropDegraded])
	}
	if len(r.hosts[1].got) != 1 || r.hosts[1].got[0].Class != ethernet.ClassTS {
		t.Fatalf("TS frame must survive shedding; got %d frames", len(r.hosts[1].got))
	}
}

func TestDegradeShedRCKeepsTS(t *testing.T) {
	r := newRig(t, testConfig())
	r.sw.SetDegradeLevel(DegradeShedRC)
	rc := tsFrame(1, 1)
	rc.PCP, rc.Class = 5, ethernet.ClassRC
	r.hosts[0].sendAt(0, rc)
	r.hosts[0].sendAt(sim.Microsecond, tsFrame(1, 2))
	r.engine.RunUntil(sim.Second)
	if got := r.sw.Stats().Drops[DropDegraded]; got != 1 {
		t.Fatalf("degraded drops = %d, want 1 (RC)", got)
	}
	if len(r.hosts[1].got) != 1 || r.hosts[1].got[0].Class != ethernet.ClassTS {
		t.Fatal("TS frame must survive RC shedding")
	}
	// Back to off: everything flows again.
	r.sw.SetDegradeLevel(DegradeOff)
	rc2 := tsFrame(1, 3)
	rc2.PCP, rc2.Class = 5, ethernet.ClassRC
	r.hosts[0].sendAt(sim.Second+sim.Microsecond, rc2)
	r.engine.RunUntil(2 * sim.Second)
	if len(r.hosts[1].got) != 2 {
		t.Fatalf("recovered switch delivered %d frames, want 2", len(r.hosts[1].got))
	}
}

func TestPoolPressure(t *testing.T) {
	cfg := testConfig()
	cfg.BuffersPerPort = 10
	r := newRig(t, cfg)
	if p := r.sw.PoolPressure(); p != 0 {
		t.Fatalf("idle pressure = %v", p)
	}
	pool := r.sw.Port(0).Pool()
	for i := 0; i < 9; i++ {
		if _, ok := pool.Alloc(64); !ok {
			t.Fatal("alloc failed")
		}
	}
	if p := r.sw.PoolPressure(); p < 0.89 || p > 0.91 {
		t.Fatalf("pressure = %v, want 0.9", p)
	}
}
