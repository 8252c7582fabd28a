package meter

import (
	"testing"
	"testing/quick"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

func TestMeterConformWithinBurst(t *testing.T) {
	var m Meter
	m.Configure(10*ethernet.Mbps, 3000)
	// Bucket starts full: a 1500B frame conforms immediately.
	if !m.Conform(0, 1500) {
		t.Fatal("first frame within burst dropped")
	}
	if !m.Conform(0, 1500) {
		t.Fatal("second frame within burst dropped")
	}
	// Bucket now empty: a third immediate frame must drop.
	if m.Conform(0, 64) {
		t.Fatal("frame beyond burst passed")
	}
}

func TestMeterRefill(t *testing.T) {
	var m Meter
	m.Configure(8*ethernet.Mbps, 1000) // 8 Mbps = 1 byte/µs
	if !m.Conform(0, 1000) {
		t.Fatal("initial burst dropped")
	}
	// After 500 µs, 500 bytes of tokens are back.
	if m.Conform(500*sim.Microsecond, 600) {
		t.Fatal("600B passed with only 500B of tokens")
	}
	if !m.Conform(500*sim.Microsecond, 500) {
		t.Fatal("500B dropped with 500B of tokens")
	}
}

func TestMeterCapsAtBurst(t *testing.T) {
	var m Meter
	m.Configure(ethernet.Gbps, 2000)
	// A long idle period must not accumulate more than the burst.
	if !m.Conform(10*sim.Second, 2000) {
		t.Fatal("burst-sized frame dropped after idle")
	}
	if m.Conform(10*sim.Second, 64) {
		t.Fatal("tokens exceeded burst cap")
	}
}

func TestMeterLongRunRate(t *testing.T) {
	// Over 1 s, a 100 Mbps meter should pass ~100 Mbit regardless of
	// offered load pattern.
	var m Meter
	m.Configure(100*ethernet.Mbps, 12000)
	passedBits := 0
	for us := 0; us < 1_000_000; us += 100 {
		if m.Conform(sim.Time(us)*sim.Microsecond, 1250) {
			passedBits += 1250 * 8
		}
	}
	got := float64(passedBits) / 1e6 // Mbit over 1 s
	if got < 99 || got > 101.1 {
		t.Fatalf("passed %.1f Mbit in 1s through 100 Mbps meter", got)
	}
}

// TestMeterStats: the table's pass and drop counters count a meter's
// decisions.
func TestMeterStats(t *testing.T) {
	reg := metrics.New()
	tbl := NewTable(1)
	tbl.Instrument(reg.Counters("passed", "").With(), reg.Counters("dropped", "").With())
	if err := tbl.Configure(0, ethernet.Mbps, 100); err != nil {
		t.Fatal(err)
	}
	tbl.Conform(0, 0, 100)
	tbl.Conform(0, 0, 100)
	if p, d := reg.CounterValue("passed"), reg.CounterValue("dropped"); p != 1 || d != 1 {
		t.Fatalf("counters = (%d,%d), want (1,1)", p, d)
	}
}

func TestMeterPanics(t *testing.T) {
	var m Meter
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero rate Configure did not panic")
			}
		}()
		m.Configure(0, 100)
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("Conform on unconfigured meter did not panic")
			}
		}()
		(&Meter{}).Conform(0, 64)
	}()
}

func TestTableConfigureAndConform(t *testing.T) {
	tbl := NewTable(4)
	if err := tbl.Configure(2, ethernet.Mbps, 200); err != nil {
		t.Fatal(err)
	}
	if !tbl.Conform(2, 0, 200) {
		t.Fatal("conforming frame dropped")
	}
	if tbl.Conform(2, 0, 200) {
		t.Fatal("non-conforming frame passed")
	}
}

func TestTableUnconfiguredPasses(t *testing.T) {
	tbl := NewTable(4)
	if !tbl.Conform(1, 0, 1500) {
		t.Fatal("unconfigured meter dropped a frame")
	}
	if !tbl.Conform(-1, 0, 1500) || !tbl.Conform(99, 0, 1500) {
		t.Fatal("out-of-range meter ID dropped a frame")
	}
}

func TestTableConfigureOutOfRange(t *testing.T) {
	tbl := NewTable(2)
	if err := tbl.Configure(2, ethernet.Mbps, 100); err == nil {
		t.Fatal("out-of-range Configure succeeded")
	}
	if err := tbl.Configure(-1, ethernet.Mbps, 100); err == nil {
		t.Fatal("negative Configure succeeded")
	}
}

func TestTableGet(t *testing.T) {
	tbl := NewTable(2)
	if tbl.Get(0) != nil {
		t.Fatal("Get of unconfigured meter non-nil")
	}
	_ = tbl.Configure(0, ethernet.Mbps, 100)
	if tbl.Get(0) == nil {
		t.Fatal("Get of configured meter nil")
	}
}

// Property: a meter never passes more than burst + rate*t bits over any
// horizon t.
func TestMeterConservationProperty(t *testing.T) {
	prop := func(sizes []uint16) bool {
		var m Meter
		const burst = 5000
		rate := 10 * ethernet.Mbps
		m.Configure(rate, burst)
		now := sim.Time(0)
		passedBits := int64(0)
		for _, s := range sizes {
			size := int(s%1500) + 64
			now += 50 * sim.Microsecond
			if m.Conform(now, size) {
				passedBits += int64(size) * 8
			}
		}
		budget := int64(burst)*8 + int64(now)*int64(rate)/int64(sim.Second)
		return passedBits <= budget
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
