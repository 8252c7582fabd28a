// Package shaper implements the Egress Sched function template of
// Fig. 5: a strict-priority scheduler over the port's queues plus
// credit-based shapers (CBS, 802.1Qav) that limit the bandwidth of the
// RC queues "for alleviating the traffic burst". The CBS MAP table
// binds queues to shapers and the CBS table holds each shaper's
// idleslope/sendslope, mirroring the paper's resource view.
package shaper

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// CBS is one credit-based shaper implemented, as the paper notes, on a
// token-bucket-like credit counter. Credits are in bits.
//
// Semantics per 802.1Qav:
//   - while a frame of the shaped queue waits, credit rises at
//     idleSlope (bits/s);
//   - while a frame transmits, credit changes at sendSlope =
//     idleSlope − portRate (negative);
//   - a queue is eligible to transmit only when credit ≥ 0;
//   - when the queue goes empty with positive credit, credit resets to
//     zero (no banking of idle bandwidth).
type CBS struct {
	idleSlope ethernet.Rate
	portRate  ethernet.Rate
	credit    int64 // bits
	last      sim.Time
	// stalls, when bound, counts eligibility checks that failed on
	// negative credit — the shaper actively holding the queue back.
	stalls metrics.Counter
}

// Configure initializes the shaper. idleSlope is the reserved
// bandwidth; portRate the line rate it is shaped against.
func (c *CBS) Configure(idleSlope, portRate ethernet.Rate) {
	if idleSlope <= 0 || portRate <= 0 || idleSlope > portRate {
		panic(fmt.Sprintf("shaper: invalid slopes idle=%d port=%d", idleSlope, portRate))
	}
	c.idleSlope = idleSlope
	c.portRate = portRate
	c.credit = 0
	c.last = 0
}

// accrue advances the idle accumulation to now.
func (c *CBS) accrue(now sim.Time) {
	if now <= c.last {
		return
	}
	c.credit += int64(now-c.last) * int64(c.idleSlope) / int64(sim.Second)
	c.last = now
}

// Instrument binds the shaper's credit-stall counter.
func (c *CBS) Instrument(stalls metrics.Counter) { c.stalls = stalls }

// Eligible reports whether the shaped queue may start a transmission at
// instant now (credit ≥ 0 after idle accrual).
func (c *CBS) Eligible(now sim.Time) bool {
	c.accrue(now)
	if c.credit < 0 {
		c.stalls.Inc()
		return false
	}
	return true
}

// OnSend charges a transmission that starts at now and occupies the
// wire for txTime carrying frameBits of frame data. The credit evolves
// at sendSlope across the window; accounting is applied up front with
// the clock advanced past the window.
func (c *CBS) OnSend(now sim.Time, frameBits int64, txTime sim.Time) {
	c.accrue(now)
	// sendSlope × txTime = idleSlope×txTime − portRate×txTime; the last
	// term is exactly the wire bits (frame + overhead), but charging
	// the frame's own bits is the conventional software model. Use the
	// full window against portRate for fidelity.
	c.credit += int64(txTime)*int64(c.idleSlope)/int64(sim.Second) -
		int64(txTime)*int64(c.portRate)/int64(sim.Second)
	_ = frameBits
	c.last = now + txTime
}

// OnEmpty must be called when the shaped queue drains: positive credit
// is forfeited.
func (c *CBS) OnEmpty(now sim.Time) {
	c.accrue(now)
	if c.credit > 0 {
		c.credit = 0
	}
}

// Bank is one port's CBS MAP table + CBS table: a fixed number of
// shapers and a fixed number of queue→shaper bindings, per the
// set_cbs_tbl customization API.
type Bank struct {
	mapCapacity int
	// binding[q] is queue q's shaper index + 1 (0: unbound), so For,
	// asked for every non-empty queue, is an index; Attach grows it.
	binding    []int
	bound      int // consumed CBS MAP entries: the non-zero bindings
	shapers    []CBS
	configured []bool
}

// NewBank returns a bank with mapSize binding slots and cbsSize
// shapers.
func NewBank(mapSize, cbsSize int) *Bank {
	if mapSize < 0 || cbsSize < 0 {
		panic("shaper: negative bank size")
	}
	return &Bank{
		mapCapacity: mapSize,
		shapers:     make([]CBS, cbsSize),
		configured:  make([]bool, cbsSize),
	}
}

// Attach binds queueID to shaper cbsID, consuming one CBS MAP entry.
func (b *Bank) Attach(queueID, cbsID int) error {
	if cbsID < 0 || cbsID >= len(b.shapers) {
		return fmt.Errorf("shaper: cbs id %d out of range [0,%d)", cbsID, len(b.shapers))
	}
	if queueID < 0 {
		return fmt.Errorf("shaper: negative queue id %d", queueID)
	}
	if queueID >= len(b.binding) {
		b.binding = append(b.binding, make([]int, queueID+1-len(b.binding))...)
	}
	if b.binding[queueID] == 0 {
		if b.bound >= b.mapCapacity {
			return fmt.Errorf("shaper: CBS MAP table full (%d entries)", b.mapCapacity)
		}
		b.bound++
	}
	b.binding[queueID] = cbsID + 1
	return nil
}

// Configure sets shaper cbsID's slopes.
func (b *Bank) Configure(cbsID int, idleSlope, portRate ethernet.Rate) error {
	if cbsID < 0 || cbsID >= len(b.shapers) {
		return fmt.Errorf("shaper: cbs id %d out of range [0,%d)", cbsID, len(b.shapers))
	}
	b.shapers[cbsID].Configure(idleSlope, portRate)
	b.configured[cbsID] = true
	return nil
}

// For returns the shaper bound to queueID, or nil if the queue is
// unshaped (TS and BE queues).
func (b *Bank) For(queueID int) *CBS {
	if uint(queueID) < uint(len(b.binding)) {
		if id := b.binding[queueID] - 1; id >= 0 && b.configured[id] {
			return &b.shapers[id]
		}
	}
	return nil
}

// MapLen returns the number of consumed CBS MAP entries.
func (b *Bank) MapLen() int { return b.bound }

// RequiredSize returns the smallest CBS table size that keeps every
// bound or configured shaper addressable: highest such id + 1 (0 if
// none).
func (b *Bank) RequiredSize() int {
	req := 0
	for _, bound := range b.binding {
		req = max(req, bound) // the shaper index + 1
	}
	for id, cfg := range b.configured {
		if cfg && id+1 > req {
			req = id + 1
		}
	}
	return req
}

// Resize changes the CBS MAP and CBS table sizes in place, preserving
// bindings, slopes and accumulated credit — the live-reconfiguration
// primitive behind set_cbs_tbl. It fails if live bindings exceed the
// new map size or a bound/configured shaper id falls outside the new
// CBS size.
func (b *Bank) Resize(mapSize, cbsSize int) error {
	if mapSize < 0 || cbsSize < 0 {
		return fmt.Errorf("shaper: negative bank size %d/%d", mapSize, cbsSize)
	}
	if b.bound > mapSize {
		return fmt.Errorf("shaper: cannot shrink CBS MAP to %d: %d bindings installed",
			mapSize, b.bound)
	}
	if req := b.RequiredSize(); cbsSize < req {
		return fmt.Errorf("shaper: cannot shrink CBS table to %d: shaper %d is live", cbsSize, req-1)
	}
	shapers := make([]CBS, cbsSize)
	configured := make([]bool, cbsSize)
	copy(shapers, b.shapers)
	copy(configured, b.configured)
	b.shapers, b.configured = shapers, configured
	b.mapCapacity = mapSize
	return nil
}
