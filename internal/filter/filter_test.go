package filter

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tables"
)

func tsFrame() *ethernet.Frame {
	return &ethernet.Frame{
		Src: ethernet.HostMAC(1), Dst: ethernet.HostMAC(2),
		VID: 10, PCP: 7, Class: ethernet.ClassTS,
	}
}

func TestClassifiedFrame(t *testing.T) {
	e := New(8, 8, 8)
	err := e.Class.Add(tables.KeyFor(tsFrame()), tables.ClassEntry{QueueID: 7})
	if err != nil {
		t.Fatal(err)
	}
	v := e.Process(tsFrame(), 0)
	if !v.Classified || v.QueueID != 7 || !v.Conform {
		t.Fatalf("Verdict = %+v", v)
	}
}

func TestFallbackPCPMapping(t *testing.T) {
	e := New(8, 8, 8)
	f := tsFrame()
	f.PCP = 3
	v := e.Process(f, 0)
	if v.Classified || v.QueueID != 3 || !v.Conform {
		t.Fatalf("Verdict = %+v", v)
	}
}

func TestFallbackClampsToQueueCount(t *testing.T) {
	e := New(8, 8, 4)
	f := tsFrame()
	f.PCP = 7
	if v := e.Process(f, 0); v.QueueID != 3 {
		t.Fatalf("QueueID = %d, want clamped 3", v.QueueID)
	}
}

func TestMeteredFlow(t *testing.T) {
	e := New(8, 8, 8)
	key := tables.KeyFor(tsFrame())
	if err := e.Class.Add(key, tables.ClassEntry{QueueID: 5, MeterID: 2, HasMeter: true}); err != nil {
		t.Fatal(err)
	}
	// 1 Mbps meter with a one-frame burst.
	if err := e.Meters.Configure(2, ethernet.Mbps, 64); err != nil {
		t.Fatal(err)
	}
	if v := e.Process(tsFrame(), 0); !v.Conform {
		t.Fatal("first frame dropped")
	}
	if v := e.Process(tsFrame(), 0); v.Conform {
		t.Fatal("burst-exceeding frame passed")
	}
	// After 512 µs at 1 Mbps, 64B of tokens are back.
	if v := e.Process(tsFrame(), 512*sim.Microsecond); !v.Conform {
		t.Fatal("frame after refill dropped")
	}
}

func TestUnmeteredEntry(t *testing.T) {
	e := New(8, 8, 8)
	key := tables.KeyFor(tsFrame())
	_ = e.Class.Add(key, tables.ClassEntry{QueueID: 7, HasMeter: false})
	for i := 0; i < 100; i++ {
		if v := e.Process(tsFrame(), 0); !v.Conform {
			t.Fatal("unmetered frame dropped")
		}
	}
}

func TestInvalidQueueCountPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero queueCount did not panic")
		}
	}()
	New(8, 8, 0)
}
