package tsnswitch

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/gate"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

func TestSharedBufferPool(t *testing.T) {
	cfg := testConfig()
	cfg.BuffersPerPort = 0
	cfg.SharedBufferNum = 4
	if err := cfg.Validate(); err != nil {
		t.Fatal(err)
	}
	r := newRig(t, cfg)
	// Frames queue on port 1's egress; the pool is shared, so the
	// second port sees the same occupancy accounting.
	for i := 0; i < 3; i++ {
		r.hosts[0].sendAt(sim.Time(i)*sim.Microsecond, tsFrame(1, uint32(i)))
	}
	r.engine.RunUntil(sim.Second)
	if len(r.hosts[1].got) != 3 {
		t.Fatalf("received %d frames", len(r.hosts[1].got))
	}
	// Both ports report the same (shared) pool.
	if r.sw.Port(0).Pool().HighWater() != r.sw.Port(1).Pool().HighWater() {
		t.Fatal("ports report different pools in shared mode")
	}
}

func TestSharedBufferExhaustion(t *testing.T) {
	cfg := testConfig()
	cfg.BuffersPerPort = 0
	cfg.SharedBufferNum = 2
	r := newRig(t, cfg)
	for i := 0; i < 6; i++ {
		r.hosts[0].sendAt(sim.Time(i)*sim.Microsecond, tsFrame(1, uint32(i)))
	}
	r.engine.RunUntil(sim.Second)
	if r.sw.Stats().Drops[DropBufferFull] == 0 {
		t.Fatal("no buffer-full drops with a 2-slot shared pool")
	}
}

func TestSharedBufferConfigValidation(t *testing.T) {
	cfg := testConfig()
	cfg.BuffersPerPort = 0
	cfg.SharedBufferNum = 0
	if err := cfg.Validate(); err == nil {
		t.Fatal("no buffers accepted")
	}
	cfg.SharedBufferNum = -1
	if err := cfg.Validate(); err == nil {
		t.Fatal("negative shared buffers accepted")
	}
}

func TestSetPortSchedules(t *testing.T) {
	cfg := testConfig()
	cfg.GateSize = 4
	r := newRig(t, cfg)
	sched := gate.NewGCL([]gate.Entry{
		{Mask: gate.AllOpen, Duration: 100 * sim.Microsecond},
		{Mask: 0, Duration: 10 * sim.Microsecond},
	})
	if err := r.sw.SetPortSchedules(1, sched, sched); err != nil {
		t.Fatal(err)
	}
	// Oversized schedule rejected.
	big := gate.NewGCL([]gate.Entry{
		{Mask: 1, Duration: 1}, {Mask: 2, Duration: 1}, {Mask: 1, Duration: 1},
		{Mask: 2, Duration: 1}, {Mask: 1, Duration: 1},
	})
	if err := r.sw.SetPortSchedules(1, big, sched); err == nil {
		t.Fatal("oversized schedule accepted")
	}
	if err := r.sw.SetPortSchedules(1, nil, sched); err == nil {
		t.Fatal("nil schedule accepted")
	}
}

func TestCustomScheduleDataplane(t *testing.T) {
	// Replace port 1's gates with an always-open schedule: TS frames
	// then forward immediately instead of waiting for a CQF slot.
	cfg := testConfig()
	r := newRig(t, cfg)
	open := gate.AlwaysOpen(sim.Millisecond)
	if err := r.sw.SetPortSchedules(1, open, open); err != nil {
		t.Fatal(err)
	}
	f := tsFrame(1, 1)
	f.SentAt = 0
	r.hosts[0].sendAt(0, f)
	r.engine.RunUntil(sim.Second)
	if len(r.hosts[1].got) != 1 {
		t.Fatal("frame lost")
	}
	if lat := r.hosts[1].arrivals[0]; lat > 5*sim.Microsecond {
		t.Fatalf("ungated TS latency = %v, want immediate forwarding", lat)
	}
}
