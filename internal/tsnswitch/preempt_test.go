package tsnswitch

import (
	"runtime"
	"runtime/debug"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/gate"
	"github.com/tsnbuilder/tsnbuilder/internal/israce"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// preemptRig builds a switch with preemption and ungated TS queues
// (always-open schedules), so express latency is bounded by MAC
// behaviour alone — the regime 802.1Qbu targets.
func preemptRig(t *testing.T, preempt bool) *rig {
	t.Helper()
	cfg := testConfig()
	cfg.EnablePreemption = preempt
	cfg.QueueDepth = 64
	cfg.BuffersPerPort = 256
	r := newRig(t, cfg)
	open := gate.AlwaysOpen(sim.Millisecond)
	for p := 0; p < cfg.Ports; p++ {
		if err := r.sw.SetPortSchedules(p, open, open); err != nil {
			t.Fatal(err)
		}
	}
	return r
}

// beFrame builds a 1500 B best-effort frame to host dst.
func beFrame(dst int, seq uint32) *ethernet.Frame {
	f := tsFrame(dst, seq)
	f.PCP = 0
	f.Class = ethernet.ClassBE
	f.FlowID = 2
	f.Payload = make([]byte, 1478) // 1500B wire
	return f
}

// expressLatency saturates port 1 with BE frames and injects one TS
// frame mid-transmission, returning the TS frame's delivery latency.
func expressLatency(t *testing.T, preempt bool) sim.Time {
	t.Helper()
	r := preemptRig(t, preempt)
	// Two BE frames back-to-back: the second is in flight when the TS
	// frame arrives.
	r.hosts[0].sendAt(0, beFrame(1, 1))
	r.hosts[0].sendAt(0, beFrame(1, 2))
	ts := tsFrame(1, 100)
	// Arrives at the switch ≈ 16.5 µs in: BE#2 is mid-transmission on
	// the egress port.
	at := 16 * sim.Microsecond
	ts.SentAt = at
	r.hosts[0].sendAt(at, ts)
	r.engine.RunUntil(sim.Second)
	for i, f := range r.hosts[1].got {
		if f.FlowID == 1 {
			return r.hosts[1].arrivals[i] - f.SentAt
		}
	}
	t.Fatal("TS frame lost")
	return 0
}

func TestPreemptionCutsExpressLatency(t *testing.T) {
	without := expressLatency(t, false)
	with := expressLatency(t, true)
	// Without preemption the TS frame waits out the 1500 B frame
	// (~12 µs); with it, only the current fragment boundary (~ µs).
	if without < 8*sim.Microsecond {
		t.Fatalf("baseline express latency %v suspiciously low", without)
	}
	if with*2 > without {
		t.Fatalf("preemption did not help: %v vs %v", with, without)
	}
	t.Logf("express latency: %v without preemption, %v with", without, with)
}

func TestPreemptedFrameStillDelivered(t *testing.T) {
	r := preemptRig(t, true)
	r.hosts[0].sendAt(0, beFrame(1, 1))
	r.hosts[0].sendAt(0, beFrame(1, 2))
	ts := tsFrame(1, 100)
	r.hosts[0].sendAt(16*sim.Microsecond, ts)
	r.engine.RunUntil(sim.Second)
	// All three frames arrive exactly once.
	if len(r.hosts[1].got) != 3 {
		t.Fatalf("received %d frames, want 3", len(r.hosts[1].got))
	}
	seen := map[uint32]int{}
	for _, f := range r.hosts[1].got {
		seen[f.FlowID<<16|f.Seq]++
	}
	for k, n := range seen {
		if n != 1 {
			t.Fatalf("frame %x delivered %d times", k, n)
		}
	}
	st := r.sw.Stats()
	if st.TotalDrops() != 0 {
		t.Fatalf("drops: %+v", st.Drops)
	}
	// The preempted frame's buffer is freed exactly once.
	for p := 0; p < 2; p++ {
		if inUse := r.sw.Port(p).Pool().InUse(); inUse != 0 {
			t.Fatalf("port %d leaked %d buffers through preemption", p, inUse)
		}
	}
}

func TestPreemptedFrameDelayedByFragmentOverhead(t *testing.T) {
	// The preempted BE frame completes after the express frame plus
	// fragment overhead — later than it would have unpreempted.
	arrivalOfBE2 := func(preempt bool) sim.Time {
		r := preemptRig(t, preempt)
		r.hosts[0].sendAt(0, beFrame(1, 1))
		r.hosts[0].sendAt(0, beFrame(1, 2))
		r.hosts[0].sendAt(16*sim.Microsecond, tsFrame(1, 100))
		r.engine.RunUntil(sim.Second)
		for i, f := range r.hosts[1].got {
			if f.FlowID == 2 && f.Seq == 2 {
				return r.hosts[1].arrivals[i]
			}
		}
		t.Fatal("BE#2 lost")
		return 0
	}
	plain := arrivalOfBE2(false)
	preempted := arrivalOfBE2(true)
	if preempted <= plain {
		t.Fatalf("preempted frame not delayed: %v vs %v", preempted, plain)
	}
	// The delay is roughly the express frame + overheads, well under
	// 5 µs.
	if preempted-plain > 5*sim.Microsecond {
		t.Fatalf("preemption cost %v, too high", preempted-plain)
	}
}

func TestNoPreemptionOfExpressByExpress(t *testing.T) {
	// A TS frame never preempts another TS frame.
	r := preemptRig(t, true)
	big := tsFrame(1, 1)
	big.Payload = make([]byte, 1478)
	r.hosts[0].sendAt(0, big)
	r.hosts[0].sendAt(14*sim.Microsecond, tsFrame(1, 2))
	r.engine.RunUntil(sim.Second)
	if len(r.hosts[1].got) != 2 {
		t.Fatalf("received %d, want 2", len(r.hosts[1].got))
	}
	// In-order delivery proves no preemption occurred.
	if r.hosts[1].got[0].Seq != 1 || r.hosts[1].got[1].Seq != 2 {
		t.Fatal("express frames reordered")
	}
}

func TestPreemptionRespectsMinFragment(t *testing.T) {
	// A TS frame arriving in the last bytes of a BE frame cannot cut it
	// (remainder < 64 B): it waits instead, and nothing is lost.
	r := preemptRig(t, true)
	r.hosts[0].sendAt(0, beFrame(1, 1))
	r.hosts[0].sendAt(0, beFrame(1, 2))
	// BE#2 occupies the egress wire ≈ [12.8µs, 25µs]; hit its tail.
	r.hosts[0].sendAt(24*sim.Microsecond, tsFrame(1, 100))
	r.engine.RunUntil(sim.Second)
	if len(r.hosts[1].got) != 3 {
		t.Fatalf("received %d frames, want 3", len(r.hosts[1].got))
	}
}

// TestPreemptionAllocatesNothing: the suspended-frame record and the
// post-cut gap's handler are made with the port, so a run that preempts
// allocates no more than the same run without preemption.
func TestPreemptionAllocatesNothing(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	run := func(preempt bool) (allocs uint64, preemptions uint64) {
		cfg := testConfig()
		cfg.EnablePreemption = preempt
		cfg.QueueDepth, cfg.BuffersPerPort = 64, 256
		cfg.Metrics = metrics.New()
		r := newRig(t, cfg)
		open := gate.AlwaysOpen(sim.Millisecond)
		for p := 0; p < cfg.Ports; p++ {
			if err := r.sw.SetPortSchedules(p, open, open); err != nil {
				t.Fatal(err)
			}
		}
		for k := uint32(0); k < 20; k++ {
			at := sim.Time(k) * 50 * sim.Microsecond
			r.hosts[0].sendAt(at, beFrame(1, 2*k))
			r.hosts[0].sendAt(at, beFrame(1, 2*k+1))
			r.hosts[0].sendAt(at+16*sim.Microsecond, tsFrame(1, 100+k))
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		r.engine.RunUntil(sim.Second)
		runtime.ReadMemStats(&after)
		if len(r.hosts[1].got) != 60 {
			t.Fatalf("delivered %d of 60 frames", len(r.hosts[1].got))
		}
		return after.Mallocs - before.Mallocs, cfg.Metrics.SumCounter(MetricPreemption)
	}
	plain, _ := run(false)
	cut, preemptions := run(true)
	if preemptions == 0 {
		t.Fatal("nothing was preempted")
	}
	if cut != plain {
		t.Fatalf("%d preemptions cost %d allocations over the run without (%d vs %d)", preemptions, int64(cut)-int64(plain), cut, plain)
	}
}
