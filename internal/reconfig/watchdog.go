package reconfig

import (
	"fmt"
	"slices"

	"github.com/tsnbuilder/tsnbuilder/internal/frer"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

// Watchdog metric names.
const (
	// MetricAudits counts completed audit sweeps.
	MetricAudits = "tsn_watchdog_audits_total"
	// MetricViolations counts invariant violations {invariant=...}.
	MetricViolations = "tsn_watchdog_violations_total"
	// MetricDegradeLevel is the current degradation level {switch}.
	MetricDegradeLevel = "tsn_degrade_level"
	// MetricDegradeTransitions counts level changes {switch}.
	MetricDegradeTransitions = "tsn_degrade_transitions_total"
)

// invariants is every invariant class the watchdog audits, in the order
// their violation counters are registered.
var invariants = [...]string{"buffer-conservation", "queue-bounds", "gate-monotonic", "frer-bounds"}

// WatchdogInterval is the audit period: each sweep runs one interval
// after the previous one.
const WatchdogInterval = sim.Millisecond

// The graceful-degradation ladder: pool-occupancy fractions at which
// traffic shedding engages and disengages. recoverAt < shedBE < shedRC
// gives the ladder hysteresis so the level does not flap around a
// threshold.
const (
	// shedBE engages best-effort shedding at 75 % pool occupancy.
	shedBE = 0.75
	// shedRC escalates to shedding BE and RC at 90 %.
	shedRC = 0.90
	// recoverAt disengages shedding once occupancy falls to 50 % or
	// below.
	recoverAt = 0.50
)

// Transition records one degradation-level change the policy drove:
// which switch moved, from which level to which, at which instant. The
// ladder contract is directional — escalation may jump straight to the
// pressure's level, but de-escalation steps exactly one rung per audit
// (ShedRC → ShedBE → Off), so shed classes are restored in reverse
// order of shedding: RC service returns before BE.
type Transition struct {
	Switch   int
	From, To tsnswitch.DegradeLevel
	At       sim.Time
}

// Watchdog periodically audits runtime conservation invariants on the
// watched switches — buffer leak / double free, queue occupancy within
// depth, gate schedule monotonicity, FRER table bounds — and drives
// the graceful-degradation policy from buffer-pool pressure. It runs
// as an ordinary simulation event, so audits land deterministically in
// the event order and the same seed reproduces the same findings.
type Watchdog struct {
	engine *sim.Engine

	switches []*tsnswitch.Switch
	frers    []*frer.Table

	// audits and violations (by invariant, in invariants order) are
	// the audit and violation counters' cells.
	audits      uint64
	violations  [len(invariants)]uint64
	lastDetail  string
	transitions []Transition

	levels   metrics.GaugeFamily   // per watched switch, read from the switch
	trans    metrics.CounterFamily // per watched switch
	metTrans []metrics.Counter

	started bool

	// OnAudit, when set, runs on the simulation thread at the end of
	// every audit sweep — the observability layer publishes watchdog
	// state to its health board from it.
	OnAudit func()
}

// NewWatchdog returns a watchdog auditing every WatchdogInterval,
// counting into reg (nil disables instrumentation).
func NewWatchdog(engine *sim.Engine, reg *metrics.Registry) *Watchdog {
	w := &Watchdog{
		engine: engine,
		levels: reg.Gauges(MetricDegradeLevel, "graceful-degradation level (0 off, 1 shed BE, 2 shed BE+RC)", "switch"),
		trans:  reg.Counters(MetricDegradeTransitions, "graceful-degradation level changes", "switch"),
	}
	reg.Counters(MetricAudits, "watchdog audit sweeps completed").Bind(&w.audits)
	viol := reg.Counters(MetricViolations, "invariant violations detected, by invariant", "invariant")
	for i, inv := range invariants {
		viol.Bind(&w.violations[i], metrics.Name(inv))
	}
	return w
}

// Watch adds sw to the audited set.
func (w *Watchdog) Watch(sw *tsnswitch.Switch) {
	w.switches = append(w.switches, sw)
	sw.InstrumentDegradeLevel(w.levels)
	w.metTrans = append(w.metTrans, w.trans.With(metrics.Int(sw.ID())))
}

// WatchFRER adds a sequence-recovery table to the audited set.
func (w *Watchdog) WatchFRER(tbl *frer.Table) { w.frers = append(w.frers, tbl) }

// Start schedules the first audit one interval from now.
func (w *Watchdog) Start() {
	if w.started {
		return
	}
	w.started = true
	w.engine.After(WatchdogInterval, "watchdog:tick", w.tick)
}

// Audits returns how many audit sweeps have completed.
func (w *Watchdog) Audits() uint64 { return w.audits }

// TotalViolations counts all invariant violations observed; the
// registry's MetricViolations family breaks them down by invariant.
func (w *Watchdog) TotalViolations() (n uint64) {
	for _, v := range w.violations {
		n += v
	}
	return n
}

// LastDetail returns the most recent violation's description, for
// diagnostics.
func (w *Watchdog) LastDetail() string { return w.lastDetail }

// Transitions returns every degradation-level change driven so far, in
// audit order — the evidence trail the chaos ladder-ordering oracle
// checks.
func (w *Watchdog) Transitions() []Transition {
	out := make([]Transition, len(w.transitions))
	copy(out, w.transitions)
	return out
}

// note records one violation of an invariants class.
func (w *Watchdog) note(invariant, detail string) {
	i := slices.Index(invariants[:], invariant)
	if i < 0 {
		panic("reconfig: watchdog violation of unlisted invariant " + invariant)
	}
	w.violations[i]++
	w.lastDetail = detail
}

// tick runs one audit sweep and reschedules itself.
func (w *Watchdog) tick(e *sim.Engine) {
	w.audits++
	for i, sw := range w.switches {
		local := sw.Clock.Now(e.Now())
		for _, v := range sw.Audit(local) {
			w.note(v.Invariant, v.Detail)
		}
		w.drivePolicy(i, sw)
	}
	for i, tbl := range w.frers {
		if tbl.Len() > tbl.Capacity() {
			w.note("frer-bounds", fmt.Sprintf("FRER table %d: %d streams exceed capacity %d",
				i, tbl.Len(), tbl.Capacity()))
		}
		if h := tbl.History(); h < 1 || h > frer.MaxHistory {
			w.note("frer-bounds", fmt.Sprintf("FRER table %d: history %d out of [1,%d]",
				i, h, frer.MaxHistory))
		}
	}
	if w.OnAudit != nil {
		w.OnAudit()
	}
	w.engine.After(WatchdogInterval, "watchdog:tick", w.tick)
}

// Degraded reports whether any watched switch currently sheds traffic.
func (w *Watchdog) Degraded() bool {
	for _, sw := range w.switches {
		if sw.DegradeLevel() > tsnswitch.DegradeOff {
			return true
		}
	}
	return false
}

// drivePolicy moves switch i's degradation level along the ladder:
// escalate when pool pressure crosses a shed threshold, de-escalate
// only once pressure falls to recoverAt (hysteresis), hold in between.
// De-escalation is stepwise — one rung per audit — so a switch that
// shed BE then RC restores them in reverse order (RC first, BE last),
// and each restoration gets a full audit interval to prove the
// pressure stays down before the next class returns.
func (w *Watchdog) drivePolicy(i int, sw *tsnswitch.Switch) {
	pressure := sw.PoolPressure()
	cur := sw.DegradeLevel()
	want := cur
	switch {
	case pressure >= shedRC:
		want = tsnswitch.DegradeShedRC
	case pressure >= shedBE:
		if cur < tsnswitch.DegradeShedBE {
			want = tsnswitch.DegradeShedBE
		}
	case pressure <= recoverAt:
		if cur > tsnswitch.DegradeOff {
			want = cur - 1
		}
	}
	if want != cur {
		sw.SetDegradeLevel(want)
		w.metTrans[i].Inc()
		w.transitions = append(w.transitions, Transition{
			Switch: sw.ID(), From: cur, To: want, At: w.engine.Now(),
		})
	}
}
