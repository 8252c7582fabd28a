package chaos

import (
	"bytes"

	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
)

// The automatic failure shrinker: delta debugging over the parts of a
// case that can be removed without changing what it means — faults,
// the reconfig delta, flow count, background load, duration. A
// candidate reduction is kept only if re-executing it still violates
// one of the original case's oracles, so the minimal case fails for
// the same reason, not a new one.

// shrinker carries the predicate state: which oracles count as a
// reproduction and how many executions remain.
type shrinker struct {
	oracles map[string]bool
	runs    int
}

// reproduces re-executes c and reports whether it still violates one
// of the target oracles. Out of budget or erroring candidates count as
// non-reproducing, so shrinking degrades to keeping the larger case —
// never to shipping a repro that does not repro.
func (s *shrinker) reproduces(c Case) bool {
	if s.runs <= 0 {
		return false
	}
	s.runs--
	res, err := Execute(c)
	if err != nil {
		return false
	}
	for _, v := range res.Violations {
		if s.oracles[v.Oracle] {
			return true
		}
	}
	// The determinism oracle is campaign-level (it needs two runs);
	// reproduce it here the same way.
	if s.oracles[OracleDeterminism] && s.runs > 0 {
		s.runs--
		replay, rerr := Execute(c)
		if rerr == nil && !bytes.Equal(res.MetricsJSON, replay.MetricsJSON) {
			return true
		}
	}
	return false
}

// Shrink minimizes c while it still reproduces at least one of the
// given violations' oracles, spending at most maxRuns re-executions.
// It returns the minimal case and the violations it reproduces. When
// nothing can be removed (or the budget is too small to verify any
// reduction), the original case comes back unchanged.
func Shrink(c Case, violations []Violation, maxRuns int) (Case, []Violation) {
	s := &shrinker{oracles: make(map[string]bool), runs: maxRuns}
	for _, v := range violations {
		s.oracles[v.Oracle] = true
	}
	cur := c
	for changed := true; changed && s.runs > 0; {
		changed = false
		// Drop faults one at a time, scanning until a full pass removes
		// nothing. Linear rather than classic ddmin halving: scripts
		// are short (≤ MaxFaults), so one pass is cheaper than the
		// bookkeeping and stays deterministic.
		for i := 0; i < len(cur.Faults) && s.runs > 0; i++ {
			cand := cur
			cand.Faults = append(append([]faults.Fault{}, cur.Faults[:i]...), cur.Faults[i+1:]...)
			if s.reproduces(cand) {
				cur = cand
				changed = true
				i--
			}
		}
		// Drop the reconfiguration delta.
		if cur.Reconfig != nil && s.runs > 0 {
			cand := cur
			cand.Reconfig = nil
			if s.reproduces(cand) {
				cur = cand
				changed = true
			}
		}
		// Halve the TS flow count.
		if cur.TSFlows > 1 && s.runs > 0 {
			cand := cur
			cand.TSFlows = cur.TSFlows / 2
			if cand.FRERFlows > cand.TSFlows {
				cand.FRERFlows = cand.TSFlows
			}
			if s.reproduces(cand) {
				cur = cand
				changed = true
			}
		}
		// Zero the background load.
		if (cur.RCMbps > 0 || cur.BEMbps > 0) && s.runs > 0 {
			cand := cur
			cand.RCMbps, cand.BEMbps = 0, 0
			if s.reproduces(cand) {
				cur = cand
				changed = true
			}
		}
		// Halve the duration when every scheduled event still fits.
		if half := cur.DurMs / 2; half >= 5 && fits(&cur, half) && s.runs > 0 {
			cand := cur
			cand.DurMs = half
			if s.reproduces(cand) {
				cur = cand
				changed = true
			}
		}
	}
	// Report the violations the minimal case actually reproduces. The
	// budget may be exhausted; fall back to the original violations
	// filtered by target oracles rather than re-running.
	if res, err := Execute(cur); err == nil && len(res.Violations) > 0 {
		return cur, res.Violations
	}
	return cur, violations
}

// fits reports whether every fault window and the reconfig commit
// would land comfortably inside a run of durMs: a fault fits iff its
// window [at, end) ends by the limit, whatever fields it carries.
func fits(c *Case, durMs int) bool {
	limit := int64(durMs)*1000 - 2000
	for i := range c.Faults {
		if _, end := c.Faults[i].Window(); end > limit {
			return false
		}
	}
	if c.Reconfig != nil && c.Reconfig.AtUs+(reconfig.Retries+1)*2*int64(c.SlotUs) > limit {
		return false
	}
	return true
}
