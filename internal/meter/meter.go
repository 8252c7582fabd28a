// Package meter implements the Ingress Filter template's policing
// stage: a table of token-bucket meters (Fig. 4 "Meter Tbl") that
// regulate each classified flow with its current rate, as 802.1Qci
// flow metering does. A frame that finds an empty bucket is dropped at
// ingress, protecting reserved bandwidth from misbehaving sources.
package meter

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// Meter is a single-rate two-color token bucket. Tokens are bits.
type Meter struct {
	rate       ethernet.Rate // fill rate, bits/s
	burstBits  int64         // bucket capacity, bits
	tokens     int64
	lastUpdate sim.Time
}

// Configure (re)initializes the meter with a rate and burst size in
// bytes. The bucket starts full.
func (m *Meter) Configure(rate ethernet.Rate, burstBytes int) {
	if rate <= 0 || burstBytes <= 0 {
		panic("meter: non-positive rate or burst")
	}
	m.rate = rate
	m.burstBits = int64(burstBytes) * 8
	m.tokens = m.burstBits
	m.lastUpdate = 0
}

// refill credits tokens accrued since the last update.
func (m *Meter) refill(now sim.Time) {
	if now <= m.lastUpdate {
		return
	}
	elapsed := now - m.lastUpdate
	m.lastUpdate = now
	// Saturate long idle periods before multiplying: elapsed*rate can
	// overflow int64 after ~10 s at 1 Gbps.
	fillTime := (m.burstBits*int64(sim.Second) + int64(m.rate) - 1) / int64(m.rate)
	if int64(elapsed) >= fillTime {
		m.tokens = m.burstBits
		return
	}
	m.tokens += int64(elapsed) * int64(m.rate) / int64(sim.Second)
	if m.tokens > m.burstBits {
		m.tokens = m.burstBits
	}
}

// Conform reports whether a frame of wireBytes conforms at instant now
// and, if so, consumes its tokens.
func (m *Meter) Conform(now sim.Time, wireBytes int) bool {
	if m.rate == 0 {
		panic("meter: Conform on unconfigured meter")
	}
	m.refill(now)
	need := int64(wireBytes) * 8
	if m.tokens < need {
		return false
	}
	m.tokens -= need
	return true
}

// Table is the meter table: a fixed-capacity array of meters indexed by
// the Meter ID produced by classification.
type Table struct {
	meters []Meter
	inUse  []bool
	// Telemetry: mark/drop decisions aggregated across the table;
	// zero values are no-ops.
	metPassed  metrics.Counter
	metDropped metrics.Counter
}

// NewTable returns a meter table with the given capacity.
func NewTable(capacity int) *Table {
	if capacity < 0 {
		panic("meter: negative capacity")
	}
	return &Table{meters: make([]Meter, capacity), inUse: make([]bool, capacity)}
}

// Instrument binds the table's mark/drop decision counters,
// aggregated across all meters.
func (t *Table) Instrument(passed, dropped metrics.Counter) {
	t.metPassed = passed
	t.metDropped = dropped
}

// Capacity returns the number of meter slots.
func (t *Table) Capacity() int { return len(t.meters) }

// Configure sets up meter id. It fails if id is out of range.
func (t *Table) Configure(id int, rate ethernet.Rate, burstBytes int) error {
	if id < 0 || id >= len(t.meters) {
		return fmt.Errorf("meter: id %d out of range [0,%d)", id, len(t.meters))
	}
	t.meters[id].Configure(rate, burstBytes)
	t.inUse[id] = true
	return nil
}

// Conform applies meter id to a frame. Frames referencing an
// unconfigured meter pass unmetered (a miss in hardware falls through).
func (t *Table) Conform(id int, now sim.Time, wireBytes int) bool {
	if id < 0 || id >= len(t.meters) || !t.inUse[id] {
		return true
	}
	ok := t.meters[id].Conform(now, wireBytes)
	if ok {
		t.metPassed.Inc()
	} else {
		t.metDropped.Inc()
	}
	return ok
}

// RequiredCapacity returns the smallest capacity that keeps every
// configured meter addressable: highest configured id + 1 (0 if none).
func (t *Table) RequiredCapacity() int {
	for id := len(t.inUse) - 1; id >= 0; id-- {
		if t.inUse[id] {
			return id + 1
		}
	}
	return 0
}

// Resize changes the table capacity in place, preserving configured
// meters and their token state — the live-reconfiguration primitive
// behind set_meter_tbl. It fails if a configured meter id would fall
// outside the new capacity. Only a grow past cap reallocates; slots that
// leave on a shrink are cleared, so a later grow exposes zero meters.
func (t *Table) Resize(capacity int) error {
	if capacity < 0 {
		return fmt.Errorf("meter: negative capacity %d", capacity)
	}
	if req := t.RequiredCapacity(); capacity < req {
		return fmt.Errorf("meter: cannot shrink table to %d: meter %d is configured", capacity, req-1)
	}
	if capacity > cap(t.meters) {
		t.meters = append(make([]Meter, 0, capacity), t.meters...)
		t.inUse = append(make([]bool, 0, capacity), t.inUse...)
	} else if n := len(t.meters); capacity < n {
		clear(t.meters[capacity:n])
		clear(t.inUse[capacity:n])
	}
	t.meters, t.inUse = t.meters[:capacity], t.inUse[:capacity]
	return nil
}

// Get returns meter id for inspection, or nil if unconfigured.
func (t *Table) Get(id int) *Meter {
	if id < 0 || id >= len(t.meters) || !t.inUse[id] {
		return nil
	}
	return &t.meters[id]
}
