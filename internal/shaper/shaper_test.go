package shaper

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// credit reads c's credit in bits after accrual to now.
func credit(c *CBS, now sim.Time) int64 {
	c.accrue(now)
	return c.credit
}

func TestCBSStartsEligible(t *testing.T) {
	var c CBS
	c.Configure(100*ethernet.Mbps, ethernet.Gbps)
	if !c.Eligible(0) {
		t.Fatal("zero credit must be eligible")
	}
}

func TestCBSGoesNegativeAfterSend(t *testing.T) {
	var c CBS
	c.Configure(100*ethernet.Mbps, ethernet.Gbps)
	tx := ethernet.TxTime(1250, ethernet.Gbps) // 10 µs at 1 Gbps
	c.OnSend(0, 1250*8, tx)
	if c.Eligible(tx) {
		t.Fatal("credit should be negative right after a send")
	}
	// sendSlope = 100M-1G = -900 Mbps over 10 µs = -9000 bits.
	if got := credit(&c, tx); got != -9000 {
		t.Fatalf("credit = %d, want -9000", got)
	}
}

func TestCBSRecoversAtIdleSlope(t *testing.T) {
	var c CBS
	c.Configure(100*ethernet.Mbps, ethernet.Gbps)
	tx := ethernet.TxTime(1250, ethernet.Gbps)
	c.OnSend(0, 1250*8, tx)
	// -9000 bits at 100 Mbps recovers in 90 µs after tx end.
	end := tx + 90*sim.Microsecond
	if c.Eligible(end - sim.Microsecond) {
		t.Fatal("eligible too early")
	}
	if !c.Eligible(end) {
		t.Fatal("not eligible after full recovery")
	}
}

func TestCBSLongRunThroughput(t *testing.T) {
	// Saturated queue shaped at 200 Mbps on a 1 Gbps port: sent bits
	// over 100 ms must be ~20 Mbit.
	var c CBS
	c.Configure(200*ethernet.Mbps, ethernet.Gbps)
	const frameBytes = 1250
	tx := ethernet.TxTime(frameBytes, ethernet.Gbps)
	now := sim.Time(0)
	sent := int64(0)
	horizon := 100 * sim.Millisecond
	for now < horizon {
		if c.Eligible(now) {
			c.OnSend(now, frameBytes*8, tx)
			sent += frameBytes * 8
			now += tx
		} else {
			// Wait for credit: deficit / idleSlope.
			deficit := -credit(&c, now)
			wait := sim.Time(deficit*int64(sim.Second)/int64(200*ethernet.Mbps)) + 1
			now += wait
		}
	}
	gotMbit := float64(sent) / 1e6
	if gotMbit < 19 || gotMbit > 21 {
		t.Fatalf("shaped throughput = %.2f Mbit over 100ms, want ~20", gotMbit)
	}
}

func TestCBSResetOnEmpty(t *testing.T) {
	var c CBS
	c.Configure(500*ethernet.Mbps, ethernet.Gbps)
	// Build up credit while blocked (e.g. gate closed) for 100 µs.
	if got := credit(&c, 100*sim.Microsecond); got != 50000 {
		t.Fatalf("accrued credit = %d, want 50000", got)
	}
	c.OnEmpty(100 * sim.Microsecond)
	if got := credit(&c, 100*sim.Microsecond); got != 0 {
		t.Fatalf("credit after OnEmpty = %d, want 0", got)
	}
	// Negative credit is NOT reset by OnEmpty.
	c.OnSend(100*sim.Microsecond, 8000, ethernet.TxTime(1000, ethernet.Gbps))
	after := 100*sim.Microsecond + ethernet.TxTime(1000, ethernet.Gbps)
	neg := credit(&c, after)
	if neg >= 0 {
		t.Fatal("expected negative credit")
	}
	c.OnEmpty(after)
	if credit(&c, after) != neg {
		t.Fatal("OnEmpty changed negative credit")
	}
}

func TestCBSInvalidConfigPanics(t *testing.T) {
	cases := []struct{ idle, port ethernet.Rate }{
		{0, ethernet.Gbps},
		{ethernet.Gbps, 0},
		{2 * ethernet.Gbps, ethernet.Gbps}, // idle > port
	}
	for i, cse := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d did not panic", i)
				}
			}()
			var c CBS
			c.Configure(cse.idle, cse.port)
		}()
	}
}

func TestCBSSendSlope(t *testing.T) {
	var c CBS
	c.Configure(300*ethernet.Mbps, ethernet.Gbps)
	// A 10 µs transmission drains credit at sendSlope = 300M − 1G =
	// −700 Mbit/s, and idling recovers it at idleSlope.
	c.OnSend(0, 0, 10*sim.Microsecond)
	if got := credit(&c, 10*sim.Microsecond); got != -7000 {
		t.Fatalf("credit after send = %d, want -7000", got)
	}
	if got := credit(&c, 20*sim.Microsecond); got != -4000 {
		t.Fatalf("credit after 10 µs idle = %d, want -4000", got)
	}
}

func TestBankAttachCapacity(t *testing.T) {
	b := NewBank(2, 3)
	if err := b.Attach(5, 0); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(4, 1); err != nil {
		t.Fatal(err)
	}
	if err := b.Attach(3, 2); err == nil {
		t.Fatal("attach beyond map capacity succeeded")
	}
	// Re-binding an existing queue does not consume capacity.
	if err := b.Attach(5, 1); err != nil {
		t.Fatalf("re-bind failed: %v", err)
	}
	if b.MapLen() != 2 {
		t.Fatalf("MapLen = %d", b.MapLen())
	}
}

func TestBankForUnboundReturnsNil(t *testing.T) {
	b := NewBank(2, 2)
	if b.For(7) != nil {
		t.Fatal("unbound queue has a shaper")
	}
	// Bound but unconfigured also returns nil.
	_ = b.Attach(5, 0)
	if b.For(5) != nil {
		t.Fatal("unconfigured shaper returned")
	}
	_ = b.Configure(0, 100*ethernet.Mbps, ethernet.Gbps)
	if b.For(5) == nil {
		t.Fatal("configured shaper not returned")
	}
}

func TestBankRangeErrors(t *testing.T) {
	b := NewBank(2, 2)
	if err := b.Attach(1, 5); err == nil {
		t.Fatal("out-of-range cbs id accepted")
	}
	if err := b.Attach(-1, 0); err == nil || b.MapLen() != 0 || b.For(-1) != nil {
		t.Fatalf("negative queue id: err %v, MapLen %d", err, b.MapLen())
	}
	if err := b.Configure(9, ethernet.Mbps, ethernet.Gbps); err == nil {
		t.Fatal("out-of-range Configure accepted")
	}
	if err := b.Configure(-1, ethernet.Mbps, ethernet.Gbps); err == nil {
		t.Fatal("negative Configure accepted")
	}
}

func TestBankNegativeSizesPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("negative bank size did not panic")
		}
	}()
	NewBank(-1, 2)
}
