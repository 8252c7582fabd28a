package clock

import (
	"testing"
	"testing/quick"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

func TestPerfectClockTracksTrueTime(t *testing.T) {
	c := New(0, 0)
	for _, now := range []sim.Time{0, 1, 1000, sim.Second} {
		if c.Now(now) != now {
			t.Fatalf("perfect clock Now(%v) = %v", now, c.Now(now))
		}
	}
}

func TestDriftAccumulates(t *testing.T) {
	// +100 ppm clock gains 100 µs per second.
	c := New(100_000, 0)
	got := c.Offset(sim.Second)
	if got != 100*sim.Microsecond {
		t.Fatalf("offset after 1s at +100ppm = %v, want 100µs", got)
	}
}

func TestNegativeDrift(t *testing.T) {
	c := New(-50_000, 0)
	if got := c.Offset(sim.Second); got != -50*sim.Microsecond {
		t.Fatalf("offset = %v, want -50µs", got)
	}
}

func TestInitialOffset(t *testing.T) {
	c := New(0, 3*sim.Millisecond)
	if c.Now(0) != 3*sim.Millisecond {
		t.Fatal("initial offset not applied")
	}
}

func TestStep(t *testing.T) {
	c := New(0, 0)
	c.Step(10*sim.Second, -7*sim.Microsecond)
	if got := c.Offset(10 * sim.Second); got != -7*sim.Microsecond {
		t.Fatalf("offset after step = %v", got)
	}
	// Step applies only from the adjustment instant forward.
	if got := c.Offset(20 * sim.Second); got != -7*sim.Microsecond {
		t.Fatalf("offset later = %v", got)
	}
}

func TestTrimCancelsDrift(t *testing.T) {
	c := New(25_000, 0)
	c.Trim(sim.Second, -25_000)
	before := c.Now(sim.Second)
	// After trimming, the clock should advance at the true rate.
	after := c.Now(2 * sim.Second)
	if after-before != sim.Second {
		t.Fatalf("trimmed clock advanced %v over 1s", after-before)
	}
	if c.TrimPPB() != -25_000 {
		t.Fatalf("TrimPPB = %d", c.TrimPPB())
	}
}

func TestTrimDoesNotRewriteHistory(t *testing.T) {
	c := New(100_000, 0)
	atTrim := c.Now(sim.Second)
	c.Trim(sim.Second, -100_000)
	if c.Now(sim.Second) != atTrim {
		t.Fatal("Trim changed the reading at the trim instant")
	}
}

func TestTimestampGranularity(t *testing.T) {
	c := New(0, 0)
	c.SetGranularity(Granularity125MHz)
	ts := c.Timestamp(13 * sim.Nanosecond)
	if ts != 8*sim.Nanosecond {
		t.Fatalf("Timestamp = %v, want 8ns", ts)
	}
	if c.Now(13*sim.Nanosecond) != 13*sim.Nanosecond {
		t.Fatal("granularity must not affect Now")
	}
}

func TestTimeBackwardsPanics(t *testing.T) {
	c := New(0, 0)
	c.Step(sim.Second, 0)
	defer func() {
		if recover() == nil {
			t.Error("reading before anchor did not panic")
		}
	}()
	c.Now(0)
}

func TestNegativeGranularityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative granularity did not panic")
		}
	}()
	New(0, 0).SetGranularity(-1)
}

// Property: for any drift within ±200 ppm and horizon within 10 s, the
// accumulated offset matches elapsed*drift/1e9 within 1 ns rounding.
func TestDriftProperty(t *testing.T) {
	prop := func(driftRaw int32, elapsedRaw uint32) bool {
		drift := PPB(driftRaw % 200_000)
		elapsed := sim.Time(elapsedRaw) % (10 * sim.Second)
		c := New(drift, 0)
		want := int64(elapsed) * int64(drift) / 1_000_000_000
		got := int64(c.Offset(elapsed))
		diff := got - want
		return diff >= -1 && diff <= 1
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: stepping by d then reading at the same instant shifts the
// reading by exactly d.
func TestStepProperty(t *testing.T) {
	prop := func(driftRaw int32, stepRaw int32) bool {
		drift := PPB(driftRaw % 100_000)
		step := sim.Time(stepRaw)
		c := New(drift, 0)
		at := 5 * sim.Second
		before := c.Now(at)
		c.Step(at, step)
		return c.Now(at) == before+step
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestSetDriftFrequencyStep(t *testing.T) {
	c := New(0, 0)
	// Perfect for 1 s, then a +100 ppm frequency step.
	c.SetDrift(sim.Second, 100_000)
	if got := c.Now(sim.Second); got != sim.Second {
		t.Fatalf("SetDrift rewrote history: Now(1s) = %v", got)
	}
	// One second at +100 ppm gains 100 µs.
	want := 2*sim.Second + 100*sim.Microsecond
	if got := c.Now(2 * sim.Second); got != want {
		t.Fatalf("Now(2s) = %v, want %v", got, want)
	}
	if c.drift != 100_000 {
		t.Fatalf("drift = %d, want 100000", c.drift)
	}
}

func TestSetDriftKeepsTrim(t *testing.T) {
	c := New(50_000, 0)
	c.Trim(0, -50_000) // servo cancels the drift exactly
	c.SetDrift(sim.Second, 80_000)
	if c.TrimPPB() != -50_000 {
		t.Fatalf("SetDrift clobbered trim: %d", c.TrimPPB())
	}
	// Net rate is now 80k-50k = +30k ppb = +30 ppm: gains 30 µs/s.
	want := 2*sim.Second + 30*sim.Microsecond
	if got := c.Now(2 * sim.Second); got != want {
		t.Fatalf("Now(2s) = %v, want %v", got, want)
	}
}
