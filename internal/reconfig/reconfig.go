// Package reconfig is the transactional live-reconfiguration engine:
// it applies a new core.Config to a running switch network through a
// stage → commit → rollback lifecycle driven by the discrete-event
// engine.
//
// The paper's development-model claim is that changing the application
// scenario only means regulating the set_* parameters and re-deriving;
// this package extends that to a switch that is already forwarding
// traffic. One staging pass checks the candidate against the platform's
// builder rules and compares every live switch with its share of the
// candidate: each class that differs is checked against in-flight state
// (a table cannot shrink below its live occupancy, buffers cannot
// shrink below current reservations) and staged as one operation.
// Commit applies them atomically at a CQF cycle boundary so slot
// alignment is never violated mid-slot; and any mid-apply failure —
// including one injected through internal/faults — rolls every applied
// operation back in reverse order, restoring what each one replaced.
package reconfig

import (
	"errors"
	"fmt"
	"math"
	"slices"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/frer"
	"github.com/tsnbuilder/tsnbuilder/internal/gate"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

// Metric names exported by the reconfiguration engine.
const (
	// MetricTxns counts resolved transactions by outcome
	// {outcome=committed|rejected|rolled-back}.
	MetricTxns = "tsn_reconfig_txns_total"
	// MetricOps counts staged operations by result
	// {result=applied|reverted}.
	MetricOps = "tsn_reconfig_ops_total"
	// MetricRetries counts commit attempts re-scheduled after a
	// transient staging failure.
	MetricRetries = "tsn_reconfig_retries_total"
)

// Retries is how many times a transaction re-runs a failed commit
// before it resolves rolled-back: every controller allows
// Retries+1 attempts, each one CQF cycle of the outgoing configuration
// after the last, so every attempt lands on a cycle boundary.
const Retries = 3

// maxCommitAt is the latest instant an attempt may be scheduled at:
// half the sim.Time range, so arithmetic like CommitTime()+1 or adding
// a watchdog interval downstream can never overflow, whatever the slot.
const maxCommitAt = sim.Time(math.MaxInt64 / 2)

// State is a transaction's lifecycle position.
type State int

// Transaction states. A rejected candidate never becomes a Txn: Begin
// returns the validation error and counts the rejection.
const (
	// StatePrepared: validated, operations staged, commit not yet run.
	StatePrepared State = iota
	// StateCommitted: every operation applied at the commit instant.
	StateCommitted
	// StateRolledBack: a mid-apply failure occurred and every already-
	// applied operation was reverted in reverse order.
	StateRolledBack
)

// String implements fmt.Stringer.
func (s State) String() string {
	switch s {
	case StatePrepared:
		return "prepared"
	case StateCommitted:
		return "committed"
	case StateRolledBack:
		return "rolled-back"
	}
	return fmt.Sprintf("State(%d)", int(s))
}

// Bindings connects the engine to the running network's resources. The
// testbed supplies them; keeping the type here (rather than importing
// testbed) mirrors faults.Bindings and avoids the import cycle.
type Bindings struct {
	// Switches are the live switches the new configuration applies to.
	Switches []*tsnswitch.Switch
	// FRER lists the sequence-recovery tables resized by set_frer_tbl
	// changes, in deterministic order.
	FRER []*frer.Table
	// Platform validates the candidate's structural rules; nil selects
	// the default FPGA platform.
	Platform core.Platform
	// Design gives each switch's share of a network-wide configuration
	// (Design.Local) to stage and apply; nil sizes all alike.
	Design *core.Design
}

// The op kinds reconfig handles itself: the table's last row,
// set_frer_tbl, staged per FRER table rather than per switch, and
// rebase_slot, which is no set_* class.
const setFRERTbl, rebaseSlot = len(core.Classes) - 1, len(core.Classes)

// local is the sizes (core.Sizes) of the switch's share of cfg.
func (b *Bindings) local(cfg core.Config, sw *tsnswitch.Switch) [len(core.Classes)][2]int {
	c := b.Design.Local(cfg, sw.ID()).Switch()
	return core.Sizes(&c)
}

// Verify reports a class whose sizes on sw differ from want, the
// switch's share (Design.Local) of the configuration in force. It scans
// the classes last to first, the slot before them (testbed.VerifyLive
// scans the switches the same way), so after a commit that died partway
// it names the last staged operation that applied.
func Verify(sw *tsnswitch.Switch, want core.Config) error {
	got, exp := sw.Config(), want.Switch()
	if got.SlotSize != exp.SlotSize {
		return fmt.Errorf("switch %d rebase_slot is [%d], expected [%d]", sw.ID(), got.SlotSize, exp.SlotSize)
	}
	g, w := core.Sizes(&got), core.Sizes(&exp)
	for c := setFRERTbl - 1; c >= 0; c-- {
		if r := &core.Classes[c]; g[c] != w[c] {
			return fmt.Errorf("switch %d %s is %v, expected %v", sw.ID(), r.API,
				slices.Clone(g[c][:r.Sized]), slices.Clone(w[c][:r.Sized]))
		}
	}
	return nil
}

// op is one staged reconfiguration step — data, not code: {switch,
// class}, or a FRER table's index, plus the state apply replaced, which
// revert restores.
type op struct {
	sw    *tsnswitch.Switch // nil for set_frer_tbl
	class int               // index into core.Classes, or rebaseSlot
	// rebase_slot: the lists apply replaced, captured at apply time so
	// revert reinstalls the exact values, base alignment included.
	savedIn, savedOut []*gate.GCL
	frerIdx           int // set_frer_tbl: index in Bindings.FRER
	// was is what apply replaced: the class's sizes (core.Sizes), the
	// slot in was[0] for rebase_slot, (capacity, history) for
	// set_frer_tbl.
	was [2]int
}

// name formats the operation's name on demand.
func (o *op) name() string {
	switch o.class {
	case setFRERTbl:
		return fmt.Sprintf("frer%d:set_frer_tbl", o.frerIdx)
	case rebaseSlot:
		return fmt.Sprintf("sw%d:rebase_slot", o.sw.ID())
	}
	return fmt.Sprintf("sw%d:%s", o.sw.ID(), core.Classes[o.class].API)
}

// Controller owns transaction bookkeeping: metrics, and the fault-
// injection hook that makes a commit fail mid-apply.
type Controller struct {
	engine *sim.Engine

	metCommitted  metrics.Counter
	metRejected   metrics.Counter
	metRolledBack metrics.Counter
	metApplied    metrics.Counter
	metReverted   metrics.Counter
	metRetried    metrics.Counter

	// armed/failOp: injected failure before staged op failOp; armCount
	// is how many consecutive commit attempts it survives (1 =
	// one-shot), wedged marks the failure as rollback-disabling.
	armed    bool
	failOp   int
	armCount int
	wedged   bool

	// onAttempt, when set, runs at the commit point of every attempt —
	// after the attempt counter ticks, before the first staged
	// operation applies. The durability layer hooks it to make the
	// transaction's intent record stable before any engine state moves
	// (the write-ahead rule).
	onAttempt func(*Txn, int)
}

// OnAttempt registers the commit-point hook: fn(txn, attempt) runs at
// the start of every commit attempt, before the first staged operation
// mutates the network. One hook per controller; nil clears it.
func (c *Controller) OnAttempt(fn func(*Txn, int)) { c.onAttempt = fn }

// NewController returns a controller scheduling on engine and counting
// into reg (nil disables instrumentation).
func NewController(engine *sim.Engine, reg *metrics.Registry) *Controller {
	c := &Controller{engine: engine}
	if reg != nil {
		txns := reg.Counters(MetricTxns, "reconfiguration transactions resolved, by outcome", "outcome")
		c.metCommitted = txns.With(metrics.Name("committed"))
		c.metRejected = txns.With(metrics.Name("rejected"))
		c.metRolledBack = txns.With(metrics.Name("rolled-back"))
		ops := reg.Counters(MetricOps, "reconfiguration operations, by result", "result")
		c.metApplied = ops.With(metrics.Name("applied"))
		c.metReverted = ops.With(metrics.Name("reverted"))
		c.metRetried = reg.Counters(MetricRetries, "reconfiguration commit attempts retried after transient failure").With()
	}
	return c
}

// Arm injects a mid-commit failure: the next `times` commit attempts
// (at least one) fail right before staged operation opIndex — clamped
// to the staged range, negative meaning the first — then the fault
// clears. Each failed attempt rolls back and, within Retries, retries,
// so times > Retries makes the transaction roll back. A wedged failure
// instead disables the rollback path: the already-applied prefix is NOT
// reverted, yet the transaction still reports rolled-back. That
// deliberately violates the commit-or-exact-rollback contract — it
// exists so the chaos invariant oracles have a real bug to catch.
func (c *Controller) Arm(opIndex, times int, wedged bool) {
	c.armed = true
	c.failOp = max(opIndex, 0)
	c.armCount = max(times, 1)
	c.wedged = wedged
}

// takeFailure consumes one armed failure for staged op i of n,
// reporting whether it fires and whether the rollback path is wedged.
func (c *Controller) takeFailure(i, n int) (fired, wedged bool) {
	if !c.armed {
		return false, false
	}
	if i != min(c.failOp, n-1) {
		return false, false
	}
	wedged = c.wedged
	c.armCount--
	if c.armCount <= 0 {
		c.armed = false
		c.wedged = false
	}
	return true, wedged
}

// Txn is one prepared reconfiguration transaction.
type Txn struct {
	c        *Controller
	old, new core.Config
	b        Bindings
	ops      []op
	state    State
	err      error

	scheduled bool
	commitAt  sim.Time
	attempts  int
	onResolve []func(*Txn)
}

// Begin stages candidate new against the running state reachable
// through b and, if it is applicable, returns a prepared transaction.
// A rejected candidate returns a descriptive error (all problems, not
// just the first) and counts under outcome="rejected".
func (c *Controller) Begin(old, new core.Config, b Bindings) (*Txn, error) {
	ops, err := stage(old, new, b)
	if err != nil {
		c.metRejected.Inc()
		return nil, err
	}
	return &Txn{c: c, old: old, new: new, b: b, ops: ops, state: StatePrepared}, nil
}

// stage is the one pass that decides what a transaction changes:
// structural rules first (the same Builder validation a fresh design
// passes), then the fields a live switch cannot change, then, switch by
// switch, each class whose live sizes differ from the switch's share of
// the candidate — and the slot, if it differs — gets a dry run (its
// core.Classes row's Fit, or FitRebase) and one staged operation. A
// class held at the candidate's size needs neither, and one a failed
// commit left off its share is staged back to it. A switch's findings
// read in At order: its tables, port by port, then the rest. Last come
// the FRER tables: their occupancy, and one set_frer_tbl each when
// frer_size or its window changes — testbed sizes a table past
// frer_size to fit its FRER flows, so its live capacity is no guide.
func stage(old, new core.Config, b Bindings) ([]op, error) {
	var errs []error
	var ops []op
	if err := core.BuilderFor(new, b.Platform).Check(); err != nil {
		errs = append(errs, err)
	}
	if new.QueueNum != old.QueueNum {
		errs = append(errs, fmt.Errorf("reconfig: queue_num %d → %d requires regeneration, not live reconfiguration",
			old.QueueNum, new.QueueNum))
	}
	if new.PortNum != old.PortNum {
		errs = append(errs, fmt.Errorf("reconfig: port_num %d → %d requires regeneration, not live reconfiguration",
			old.PortNum, new.PortNum))
	}
	if new.LinkRate != old.LinkRate {
		errs = append(errs, fmt.Errorf("reconfig: link_rate %d → %d requires regeneration, not live reconfiguration",
			old.LinkRate, new.LinkRate))
	}
	for _, sw := range b.Switches {
		got := sw.Config()
		live, n := core.Sizes(&got), b.local(new, sw)
		var found []tsnswitch.Misfit
		for c := range setFRERTbl {
			if n[c] != live[c] {
				found = append(found, sw.Fit(c, n[c])...)
				ops = append(ops, op{sw: sw, class: c})
			}
		}
		if got.SlotSize != new.SlotSize {
			found = append(found, sw.FitRebase()...)
			ops = append(ops, op{sw: sw, class: rebaseSlot})
		}
		slices.SortStableFunc(found, func(x, y tsnswitch.Misfit) int { return x.At - y.At })
		for _, m := range found {
			errs = append(errs, fmt.Errorf("reconfig: %w", m))
		}
	}
	newHist := effectiveHistory(new)
	for i, tbl := range b.FRER {
		if tbl.Len() > new.FRERSize {
			errs = append(errs, fmt.Errorf("reconfig: FRER table %d holds %d streams > candidate frer_size %d",
				i, tbl.Len(), new.FRERSize))
		}
		if new.FRERSize > 0 && (newHist < 1 || newHist > frer.MaxHistory) {
			errs = append(errs, fmt.Errorf("reconfig: FRER history %d out of [1,%d]", newHist, frer.MaxHistory))
		}
		if new.FRERSize != old.FRERSize || newHist != effectiveHistory(old) {
			ops = append(ops, op{class: setFRERTbl, frerIdx: i})
		}
	}
	if err := errors.Join(errs...); err != nil {
		return nil, err
	}
	return ops, nil
}

// effectiveHistory resolves the candidate's FRER window: explicit
// value, or the default when frer_size is set without one.
func effectiveHistory(cfg core.Config) int {
	if cfg.FRERHistory != 0 {
		return cfg.FRERHistory
	}
	if cfg.FRERSize > 0 {
		return frer.DefaultHistory
	}
	return 0
}

// apply moves o's resource to the candidate configuration, first
// capturing in o what it replaces.
func (t *Txn) apply(o *op) error {
	if o.class == setFRERTbl {
		tbl := t.b.FRER[o.frerIdx]
		o.was = [2]int{tbl.Capacity(), tbl.History()}
		hist := effectiveHistory(t.new)
		if hist == 0 {
			hist = tbl.History() // frer_size 0: keep the window, only the budget shrinks
		}
		return tbl.Resize(t.new.FRERSize, hist)
	}
	got := o.sw.Config()
	if o.class == rebaseSlot {
		o.was[0] = int(got.SlotSize)
		o.savedIn, o.savedOut = make([]*gate.GCL, got.Ports), make([]*gate.GCL, got.Ports)
		for p := range o.savedIn {
			o.savedIn[p], o.savedOut[p] = o.sw.PortSchedules(p)
		}
		return o.sw.RebaseCQF(t.new.SlotSize, o.sw.Clock.Now(t.c.engine.Now()))
	}
	o.was = core.Sizes(&got)[o.class]
	return o.sw.Resize(o.class, t.b.local(t.new, o.sw)[o.class])
}

// revert restores exactly the state o's apply replaced.
func (t *Txn) revert(o *op) error {
	switch o.class {
	case setFRERTbl:
		return t.b.FRER[o.frerIdx].Resize(o.was[0], o.was[1])
	case rebaseSlot:
		return o.sw.RestoreSchedules(sim.Time(o.was[0]), o.savedIn, o.savedOut)
	}
	return o.sw.Resize(o.class, o.was)
}

// State returns the transaction's lifecycle state.
func (t *Txn) State() State { return t.state }

// Err returns the failure that forced a rollback, or nil.
func (t *Txn) Err() error { return t.err }

// Ops lists the staged operation names in apply order.
func (t *Txn) Ops() []string {
	names := make([]string, len(t.ops))
	for i := range t.ops {
		names[i] = t.ops[i].name()
	}
	return names
}

// CommitTime returns the scheduled commit instant (zero until
// scheduled; the latest retry's instant once retries have run).
func (t *Txn) CommitTime() sim.Time { return t.commitAt }

// Attempts returns how many commit attempts have run (0 before the
// first; at most Retries+1).
func (t *Txn) Attempts() int { return t.attempts }

// OnResolve registers a callback invoked once, when the transaction
// commits or rolls back, in registration order.
func (t *Txn) OnResolve(fn func(*Txn)) { t.onResolve = append(t.onResolve, fn) }

// CommitAtBoundary schedules the commit for the next CQF cycle
// boundary of the outgoing configuration (cycle = 2 × slot for the
// two-entry CQF pair) and returns the chosen instant. Committing on a
// boundary means the slot grid realignment of a slot-size change never
// truncates an in-progress slot, and every staged table swap lands
// between slots. Any hyperperiod of the flow set is a multiple of the
// cycle, so hyperperiod alignment follows from choosing k cycles.
func (t *Txn) CommitAtBoundary() sim.Time {
	if t.state != StatePrepared {
		panic(fmt.Sprintf("reconfig: commit of %s transaction", t.state))
	}
	if t.scheduled {
		panic("reconfig: transaction already scheduled")
	}
	t.scheduled = true
	t.nextAttempt("reconfig:commit")
	return t.commitAt
}

// nextAttempt books Commit at the first cycle boundary after now, or
// at maxCommitAt when a pathological slot would reach past it: neither
// the doubling nor the addition may overflow sim.Time into the past.
func (t *Txn) nextAttempt(label string) {
	cycle := 2 * min(t.old.SlotSize, maxCommitAt)
	now := t.c.engine.Now()
	last := now - now%cycle
	t.commitAt = last + min(cycle, maxCommitAt-last)
	t.c.engine.At(t.commitAt, label, func(*sim.Engine) { t.Commit() })
}

// Commit applies every staged operation in order, immediately. On the
// first failure — real or injected via Controller.Arm — every
// already-applied operation is reverted in reverse order; then, up to
// Retries times, the whole commit is re-run at the next CQF cycle
// boundary (each attempt stays atomic within its own event), and only
// a failure past the budget resolves the transaction rolled-back with
// Err set. A wedged injected failure skips
// both the rollback and the retries: the applied prefix is left in
// place while the transaction still claims rolled-back — the seeded
// atomicity bug the chaos oracles exist to catch. All operations of
// one attempt run within one event, so no frame moves between apply
// steps.
func (t *Txn) Commit() {
	if t.state != StatePrepared {
		panic(fmt.Sprintf("reconfig: commit of %s transaction", t.state))
	}
	t.attempts++
	if t.c.onAttempt != nil {
		t.c.onAttempt(t, t.attempts)
	}
	for i := range t.ops {
		o := &t.ops[i]
		var err error
		fired, wedged := t.c.takeFailure(i, len(t.ops))
		if fired {
			err = fmt.Errorf("reconfig: injected failure before %q", o.name())
		} else {
			err = t.apply(o)
		}
		if err != nil {
			how := ""
			if wedged {
				how = " with rollback disabled"
			} else {
				t.rollback(i)
				if t.attempts <= Retries {
					t.c.metRetried.Inc()
					t.nextAttempt("reconfig:retry")
					return
				}
			}
			t.err = fmt.Errorf("reconfig: commit failed at %q%s: %w", o.name(), how, err)
			t.state = StateRolledBack
			t.c.metRolledBack.Inc()
			t.resolve()
			return
		}
		t.c.metApplied.Inc()
	}
	t.state = StateCommitted
	t.c.metCommitted.Inc()
	t.resolve()
}

// rollback reverts ops [0, applied) in reverse order. Each revert
// restores what its apply replaced, which the live state fitted a
// moment earlier within the same event, so it cannot fail; one that did
// would leave the switch in an undefined mixed state, so it panics.
func (t *Txn) rollback(applied int) {
	for i := applied - 1; i >= 0; i-- {
		if err := t.revert(&t.ops[i]); err != nil {
			panic(fmt.Sprintf("reconfig: rollback of %q failed: %v", t.ops[i].name(), err))
		}
		t.c.metReverted.Inc()
	}
}

func (t *Txn) resolve() {
	fns := t.onResolve
	t.onResolve = nil
	for _, fn := range fns {
		fn(t)
	}
}
