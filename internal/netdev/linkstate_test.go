package netdev

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// drops binds a's link-drop counters to a fresh registry and returns a
// reader of the (link down, loss, corrupt) counts.
func drops(a *Ifc) func() (down, loss, corrupt uint64) {
	reg := metrics.New()
	a.InstrumentLink(reg.Counters("down", "").With(), reg.Counters("loss", "").With(), reg.Counters("corrupt", "").With())
	return func() (uint64, uint64, uint64) {
		return reg.CounterValue("down"), reg.CounterValue("loss"), reg.CounterValue("corrupt")
	}
}

func TestLinkDownSuppressesDeliveryNotCompletion(t *testing.T) {
	e := sim.NewEngine()
	a, b, _, sb := pair(e, 100*sim.Nanosecond)
	linkDrops := drops(a)
	doneCount := 0
	e.After(0, "tx", func(*sim.Engine) {
		a.Transmit(&ethernet.Frame{FlowID: 7}, func() { doneCount++ })
	})
	// Cable pulled mid-serialization (64B at 1 Gbps finishes at 512 ns).
	e.After(200*sim.Nanosecond, "pull", func(*sim.Engine) { a.SetLink(false) })
	e.Run()
	if len(sb.frames) != 0 {
		t.Fatal("frame delivered across a dead link")
	}
	if doneCount != 1 {
		t.Fatalf("onDone fired %d times, want exactly 1", doneCount)
	}
	if !a.down || !b.down {
		t.Fatal("link state not symmetric after the cable pull")
	}
	if down, _, _ := linkDrops(); down != 1 {
		t.Fatalf("link-down drops = %d, want 1", down)
	}
}

func TestLinkDownDoesNotStrandBusyInterface(t *testing.T) {
	e := sim.NewEngine()
	a, _, _, sb := pair(e, 0)
	sent := 0
	var sendNext func()
	sendNext = func() {
		if sent >= 3 {
			return
		}
		sent++
		a.Transmit(&ethernet.Frame{Seq: uint32(sent)}, sendNext)
	}
	e.After(0, "start", func(*sim.Engine) { sendNext() })
	// Down during frame 1, back up before frame 3 starts (occupancy
	// 672 ns per frame).
	e.After(100*sim.Nanosecond, "down", func(*sim.Engine) { a.SetLink(false) })
	e.After(1300*sim.Nanosecond, "up", func(*sim.Engine) { a.SetLink(true) })
	e.Run()
	if sent != 3 {
		t.Fatalf("MAC stranded: only %d of 3 frames transmitted", sent)
	}
	// Frames 1 and 2 launched before/during the outage are lost;
	// frame 3 starts at 1344 ns with the link up again.
	if len(sb.frames) != 1 || sb.frames[0].Seq != 3 {
		t.Fatalf("delivered %v, want only seq 3", sb.frames)
	}
}

func TestLinkFlapEpochDropsInFlightFrame(t *testing.T) {
	e := sim.NewEngine()
	a, _, _, sb := pair(e, sim.Millisecond) // long propagation
	linkDrops := drops(a)
	e.After(0, "tx", func(*sim.Engine) { a.Transmit(&ethernet.Frame{}, nil) })
	// Full down/up flap while the frame is in flight: it must still
	// be lost even though the link is up at delivery time.
	e.After(10*sim.Microsecond, "down", func(*sim.Engine) { a.SetLink(false) })
	e.After(20*sim.Microsecond, "up", func(*sim.Engine) { a.SetLink(true) })
	e.Run()
	if len(sb.frames) != 0 {
		t.Fatal("flap did not drop the in-flight frame")
	}
	if down, _, _ := linkDrops(); down != 1 {
		t.Fatalf("link-down drops = %d, want 1", down)
	}
}

func TestSetLinkIdempotent(t *testing.T) {
	e := sim.NewEngine()
	a, _, _, _ := pair(e, 0)
	a.SetLink(false)
	epoch := a.epoch
	a.SetLink(false) // repeated down must not bump the epoch again
	if a.epoch != epoch {
		t.Fatal("repeated SetLink(false) bumped epoch")
	}
	a.SetLink(true)
	a.SetLink(true)
	if a.down || a.epoch != epoch {
		t.Fatal("repeated SetLink(true) misbehaved")
	}
}

func TestSetLinkWithoutCablePanics(t *testing.T) {
	e := sim.NewEngine()
	c := NewIfc(e, "c", &sink{engine: e}, ethernet.Gbps)
	defer func() {
		if recover() == nil {
			t.Error("SetLink with no cable did not panic")
		}
	}()
	c.SetLink(false)
}

func TestAbortOnDownedLink(t *testing.T) {
	e := sim.NewEngine()
	a, _, _, sb := pair(e, 0)
	e.After(0, "tx", func(*sim.Engine) {
		a.Transmit(&ethernet.Frame{Payload: make([]byte, 1400)}, nil)
	})
	e.After(2*sim.Microsecond, "pull+abort", func(*sim.Engine) {
		a.SetLink(false)
		if _, _, ok := a.Abort(); !ok {
			t.Error("legal-window abort failed on downed link")
		}
	})
	e.After(10*sim.Microsecond, "settle", func(*sim.Engine) {})
	e.Run()
	if len(sb.frames) != 0 {
		t.Fatal("aborted frame delivered")
	}
	if a.Busy() {
		t.Fatal("interface still busy after run")
	}
}

func TestImpairmentLossAndCorruption(t *testing.T) {
	e := sim.NewEngine()
	a, _, _, sb := pair(e, 0)
	linkDrops := drops(a)
	a.SetImpairment(1.0, 0, sim.NewRand(1))
	sent := 0
	var sendNext func()
	sendNext = func() {
		if sent >= 5 {
			return
		}
		sent++
		a.Transmit(&ethernet.Frame{Seq: uint32(sent)}, sendNext)
	}
	e.After(0, "start", func(*sim.Engine) { sendNext() })
	e.Run()
	if len(sb.frames) != 0 {
		t.Fatal("loss=1.0 delivered frames")
	}
	if _, loss, _ := linkDrops(); loss != 5 {
		t.Fatalf("loss drops = %d, want 5", loss)
	}

	// Corruption: every frame discarded as an FCS failure.
	e2 := sim.NewEngine()
	a2, _, _, sb2 := pair(e2, 0)
	linkDrops2 := drops(a2)
	a2.SetImpairment(0, 1.0, sim.NewRand(1))
	e2.After(0, "tx", func(*sim.Engine) { a2.Transmit(&ethernet.Frame{}, nil) })
	e2.Run()
	if len(sb2.frames) != 0 {
		t.Fatal("corrupt=1.0 delivered a frame")
	}
	if _, _, corrupt := linkDrops2(); corrupt != 1 {
		t.Fatalf("corrupt drops = %d, want 1", corrupt)
	}
	a2.ClearImpairment()
	e2.After(0, "tx2", func(*sim.Engine) { a2.Transmit(&ethernet.Frame{}, nil) })
	e2.Run()
	if len(sb2.frames) != 1 {
		t.Fatal("ClearImpairment did not restore delivery")
	}
}

func TestImpairmentValidation(t *testing.T) {
	e := sim.NewEngine()
	a, _, _, _ := pair(e, 0)
	for _, fn := range []func(){
		func() { a.SetImpairment(0.5, 0, nil) },
		func() { a.SetImpairment(-0.1, 0, sim.NewRand(1)) },
		func() { a.SetImpairment(0, 1.5, sim.NewRand(1)) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("invalid impairment did not panic")
				}
			}()
			fn()
		}()
	}
}

// TestLostFramesReturnToThePool: a frame the wire loses — link down,
// probabilistic loss, corruption — goes back to the receiving
// interface's pool, cleared, as one its owner received would.
func TestLostFramesReturnToThePool(t *testing.T) {
	for _, c := range []struct {
		name string
		cut  func(a *Ifc)
	}{
		{"link-down", func(a *Ifc) { a.SetLink(false) }},
		{"loss", func(a *Ifc) { a.SetImpairment(1, 0, sim.NewRand(1)) }},
		{"corrupt", func(a *Ifc) { a.SetImpairment(0, 1, sim.NewRand(1)) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			e := sim.NewEngine()
			a, b, _, sb := pair(e, 100*sim.Nanosecond)
			var pool ethernet.Pool
			b.SetPool(&pool)
			f := pool.Get()
			f.FlowID = 7
			c.cut(a)
			e.After(0, "tx", func(*sim.Engine) { a.Transmit(f, nil) })
			e.Run()
			if len(sb.frames) != 0 {
				t.Fatal("a lost frame was delivered")
			}
			if held, minted := pool.Stats(); held != 1 || minted != 1 || f.FlowID != 0 {
				t.Fatalf("pool holds %d of %d minted, frame flow %d: the lost frame did not come back", held, minted, f.FlowID)
			}
		})
	}
}
