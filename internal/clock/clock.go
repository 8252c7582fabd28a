// Package clock models the free-running local oscillators inside TSN
// devices. Each device owns a Clock whose frequency deviates from ideal
// by a fixed drift (parts per billion) and whose readings are quantized
// to the hardware timestamping granularity (8 ns at the paper's 125 MHz
// FPGA clock). The gPTP servo disciplines a Clock by stepping its phase
// and trimming its frequency, exactly as the Time Sync template does in
// hardware.
package clock

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// PPB expresses a frequency offset in parts per billion. Typical
// crystal oscillators are within ±100 ppm = ±100_000 ppb; TSN-grade
// oscillators are much tighter.
type PPB int64

// Granularity125MHz is the timestamp quantum of a 125 MHz FPGA clock,
// the frequency of the paper's Zynq 7020 prototype.
const Granularity125MHz = 8 * sim.Nanosecond

// Clock is a disciplinable local oscillator.
//
// The local time advances at rate (1 + (drift+trim)/1e9) relative to
// simulated (true) time. Phase and frequency adjustments re-anchor the
// accumulation so adjustments never rewrite history.
type Clock struct {
	anchorSim   sim.Time // sim instant of the last re-anchor
	anchorLocal sim.Time // local reading at anchorSim
	drift       PPB      // intrinsic oscillator error (fixed)
	trim        PPB      // servo frequency correction
	granularity sim.Time // timestamp quantum; 0 = exact
}

// New returns a clock with the given intrinsic drift and initial phase
// offset from true time.
func New(drift PPB, initialOffset sim.Time) *Clock {
	return &Clock{anchorLocal: initialOffset, drift: drift}
}

// SetGranularity sets the timestamp quantum used by Timestamp.
func (c *Clock) SetGranularity(g sim.Time) {
	if g < 0 {
		panic("clock: negative granularity")
	}
	c.granularity = g
}

// rate returns the total frequency offset currently in effect.
func (c *Clock) rate() PPB { return c.drift + c.trim }

// Now returns the clock's local time at simulated instant now. now must
// not precede the last adjustment.
func (c *Clock) Now(now sim.Time) sim.Time {
	elapsed := now - c.anchorSim
	if elapsed < 0 {
		panic(fmt.Sprintf("clock: time moved backwards (%v before anchor %v)", now, c.anchorSim))
	}
	skew := int64(elapsed) * int64(c.rate()) / 1_000_000_000
	return c.anchorLocal + elapsed + sim.Time(skew)
}

// Timestamp returns the local time quantized to the hardware
// granularity, as a PHY timestamping unit would report it.
func (c *Clock) Timestamp(now sim.Time) sim.Time {
	t := c.Now(now)
	if c.granularity > 1 {
		t -= t % c.granularity
	}
	return t
}

// Offset returns localTime - trueTime at the simulated instant now:
// positive when the clock runs ahead.
func (c *Clock) Offset(now sim.Time) sim.Time { return c.Now(now) - now }

// reanchor fixes the current reading so subsequent rate changes apply
// only forward in time.
func (c *Clock) reanchor(now sim.Time) {
	c.anchorLocal = c.Now(now)
	c.anchorSim = now
}

// Step adds delta to the clock's phase at instant now.
func (c *Clock) Step(now sim.Time, delta sim.Time) {
	c.reanchor(now)
	c.anchorLocal += delta
}

// Trim replaces the servo frequency correction, effective from now.
func (c *Clock) Trim(now sim.Time, trim PPB) {
	c.reanchor(now)
	c.trim = trim
}

// TrimPPB returns the current servo frequency correction.
func (c *Clock) TrimPPB() PPB { return c.trim }

// SetDrift replaces the intrinsic oscillator error from now on — a
// frequency step, as a temperature shock or failing oscillator would
// produce. Past readings are unaffected; the servo trim is kept, so a
// disciplined clock starts re-converging from its current correction.
func (c *Clock) SetDrift(now sim.Time, drift PPB) {
	c.reanchor(now)
	c.drift = drift
}
