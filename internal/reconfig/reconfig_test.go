package reconfig

import (
	"strings"
	"testing"
	"unsafe"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/frer"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

func baseCfg() core.Config {
	return core.Config{
		UnicastSize: 64, MulticastSize: 8,
		ClassSize: 64, MeterSize: 16,
		GateSize: 2, QueueNum: 8, PortNum: 2,
		CBSMapSize: 3, CBSSize: 3,
		QueueDepth: 8, BufferNum: 96,
		SlotSize: 65 * sim.Microsecond, LinkRate: ethernet.Gbps,
	}
}

func switchCfg(cfg core.Config) tsnswitch.Config {
	c := cfg.Switch()
	c.Ports = cfg.PortNum
	return c
}

// harness is one live switch plus a controller over it.
type harness struct {
	engine *sim.Engine
	sw     *tsnswitch.Switch
	ctrl   *Controller
	reg    *metrics.Registry
	cfg    core.Config
}

func newHarness(t *testing.T) *harness { return newHarnessFor(t, baseCfg()) }

// newHarnessFor is newHarness over a switch built from cfg.
func newHarnessFor(t *testing.T, cfg core.Config) *harness {
	t.Helper()
	engine := sim.NewEngine()
	sw := tsnswitch.New(engine, switchCfg(cfg))
	reg := metrics.New()
	return &harness{
		engine: engine,
		sw:     sw,
		ctrl:   NewController(engine, reg),
		reg:    reg,
		cfg:    cfg,
	}
}

func (h *harness) bindings() Bindings {
	return Bindings{Switches: []*tsnswitch.Switch{h.sw}}
}

// resolve commits txn now and runs e through its retries, one CQF cycle
// apart, until it commits or rolls back.
func resolve(e *sim.Engine, txn *Txn) {
	txn.Commit()
	for txn.State() == StatePrepared {
		e.RunUntil(txn.CommitTime() + 1)
	}
}

func TestBeginRejectsImmutableFields(t *testing.T) {
	h := newHarness(t)
	for _, tc := range []struct {
		name   string
		mutate func(*core.Config)
	}{
		{"queue_num", func(c *core.Config) { c.QueueNum = 4 }},
		{"port_num", func(c *core.Config) { c.PortNum = 4 }},
		{"link_rate", func(c *core.Config) { c.LinkRate = ethernet.Mbps }},
	} {
		cand := h.cfg
		tc.mutate(&cand)
		_, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
		if err == nil || !strings.Contains(err.Error(), "requires regeneration") {
			t.Fatalf("%s: err = %v", tc.name, err)
		}
	}
	if got := h.reg.CounterValue(MetricTxns, metrics.L("outcome", "rejected")); got != 3 {
		t.Fatalf("rejected counter = %d, want 3", got)
	}
}

func TestBeginRejectsShrinkBelowOccupancy(t *testing.T) {
	h := newHarness(t)
	for i := 0; i < 4; i++ {
		if err := h.sw.Forward().Unicast.Add(ethernet.HostMAC(i), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	cand := h.cfg
	cand.UnicastSize = 2
	_, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err == nil || !strings.Contains(err.Error(), "unicast table holds 4 entries") {
		t.Fatalf("err = %v", err)
	}
	// Shrinking to exactly the occupancy is allowed.
	cand.UnicastSize = 4
	if _, err := h.ctrl.Begin(h.cfg, cand, h.bindings()); err != nil {
		t.Fatalf("shrink-to-fit rejected: %v", err)
	}
}

func TestBeginCollectsAllProblems(t *testing.T) {
	h := newHarness(t)
	cand := h.cfg
	cand.QueueNum = 4   // immutable
	cand.MeterSize = -1 // structurally invalid
	cand.QueueDepth = 0 // structurally invalid
	_, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err == nil {
		t.Fatal("want rejection")
	}
	for _, want := range []string{"queue_num", "set_meter_tbl", "set_queues"} {
		if !strings.Contains(err.Error(), want) {
			t.Fatalf("error %q missing %q", err, want)
		}
	}
}

func TestPrepareOpsDeterministicOrder(t *testing.T) {
	h := newHarness(t)
	cand := h.cfg
	cand.UnicastSize = 128
	cand.ClassSize = 128
	cand.MeterSize = 32
	cand.GateSize = 4
	cand.CBSMapSize = 4
	cand.CBSSize = 4
	cand.QueueDepth = 16
	cand.BufferNum = 128
	cand.SlotSize = 130 * sim.Microsecond
	txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	want := []string{
		"sw0:set_switch_tbl", "sw0:set_class_tbl", "sw0:set_meter_tbl",
		"sw0:set_gate_tbl", "sw0:set_cbs_tbl", "sw0:set_queues",
		"sw0:set_buffers", "sw0:rebase_slot",
	}
	got := txn.Ops()
	if len(got) != len(want) {
		t.Fatalf("ops = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("op[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestCommitApplies(t *testing.T) {
	h := newHarness(t)
	cand := h.cfg
	cand.MeterSize = 32
	cand.QueueDepth = 16
	txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	if txn.State() != StateCommitted || txn.Err() != nil {
		t.Fatalf("state=%v err=%v", txn.State(), txn.Err())
	}
	// The grown meter table admits id 31.
	if err := h.sw.Filter().Meters.Configure(31, ethernet.Mbps, 1500); err != nil {
		t.Fatalf("meter 31 after grow: %v", err)
	}
	if got := h.reg.CounterValue(MetricTxns, metrics.L("outcome", "committed")); got != 1 {
		t.Fatalf("committed counter = %d", got)
	}
	if got := h.reg.CounterValue(MetricOps, metrics.L("result", "applied")); got != 2 {
		t.Fatalf("applied counter = %d", got)
	}
}

func TestInjectedFailureRollsBack(t *testing.T) {
	h := newHarness(t)
	cand := h.cfg
	cand.UnicastSize = 128 // op 0
	cand.MeterSize = 32    // op 1
	cand.QueueDepth = 16   // op 2
	txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	h.ctrl.Arm(2, Retries+1, false)
	resolve(h.engine, txn)
	if txn.State() != StateRolledBack {
		t.Fatalf("state = %v", txn.State())
	}
	if txn.Err() == nil || !strings.Contains(txn.Err().Error(), "injected failure") {
		t.Fatalf("err = %v", txn.Err())
	}
	// Ops 0 and 1 were applied then reverted: the unicast table must be
	// back at 64 and the meter table back at 16.
	for i := 0; i < 64; i++ {
		if err := h.sw.Forward().Unicast.Add(ethernet.HostMAC(i), 1, 0); err != nil {
			t.Fatal(err)
		}
	}
	if err := h.sw.Forward().Unicast.Add(ethernet.HostMAC(999), 1, 0); err == nil {
		t.Fatal("unicast table not restored to 64")
	}
	if err := h.sw.Filter().Meters.Configure(16, ethernet.Mbps, 1500); err == nil {
		t.Fatal("meter table not restored to 16")
	}
	if got := h.reg.CounterValue(MetricTxns, metrics.L("outcome", "rolled-back")); got != 1 {
		t.Fatalf("rolled-back counter = %d", got)
	}
	if got := h.reg.CounterValue(MetricOps, metrics.L("result", "reverted")); got != 2*(Retries+1) {
		t.Fatalf("reverted counter = %d", got)
	}
	// The arm is spent: a fresh identical transaction commits.
	txn2, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	txn2.Commit()
	if txn2.State() != StateCommitted {
		t.Fatalf("second attempt = %v", txn2.State())
	}
}

// TestArmClampsToStagedRange: an index past the staged range fails the
// last op, a negative one the first, and times < 1 arms one attempt:
// the first transaction commits on its first retry, the next at once.
func TestArmClampsToStagedRange(t *testing.T) {
	for _, op := range []int{99, -3} {
		h := newHarness(t)
		cand := h.cfg
		cand.MeterSize = 32 // single op
		h.ctrl.Arm(op, 0, false)
		for i, want := range []int{2, 1} {
			txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
			if err != nil {
				t.Fatal(err)
			}
			resolve(h.engine, txn)
			if txn.State() != StateCommitted || txn.Attempts() != want {
				t.Fatalf("Arm(%d, 0): commit %d = %v after %d attempts, want committed after %d",
					op, i, txn.State(), txn.Attempts(), want)
			}
			h.cfg, cand = cand, h.cfg
		}
	}
}

func TestCommitAtBoundaryAlignment(t *testing.T) {
	h := newHarness(t)
	cand := h.cfg
	cand.QueueDepth = 16
	var at sim.Time
	// Begin mid-cycle so the boundary is in the future.
	h.engine.At(100*sim.Microsecond, "begin", func(*sim.Engine) {
		txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
		if err != nil {
			t.Error(err)
			return
		}
		at = txn.CommitAtBoundary()
	})
	h.engine.RunUntil(sim.Second)
	cycle := 2 * h.cfg.SlotSize
	if at%cycle != 0 || at <= 100*sim.Microsecond {
		t.Fatalf("commit at %v, not a future cycle boundary (cycle %v)", at, cycle)
	}
}

func TestSlotRebaseRoundTrip(t *testing.T) {
	h := newHarness(t)
	cand := h.cfg
	cand.SlotSize = 130 * sim.Microsecond
	cand.UnicastSize = 128
	txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	if txn.State() != StateCommitted {
		t.Fatalf("state = %v (%v)", txn.State(), txn.Err())
	}
	if got := h.sw.Config().SlotSize; got != cand.SlotSize {
		t.Fatalf("slot = %v", got)
	}
	back, err := h.ctrl.Begin(cand, h.cfg, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	back.Commit()
	if back.State() != StateCommitted {
		t.Fatalf("state = %v (%v)", back.State(), back.Err())
	}
	if got := h.sw.Config().SlotSize; got != h.cfg.SlotSize {
		t.Fatalf("slot not restored: %v", got)
	}
}

func TestSlotRebaseRollsBackToSavedSchedules(t *testing.T) {
	h := newHarness(t)
	cand := h.cfg
	cand.SlotSize = 130 * sim.Microsecond
	cand.QueueDepth = 16
	txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	// Ops: [set_queues, rebase_slot]. The out-of-range index clamps to
	// the last op, so set_queues applies, the injected failure fires in
	// place of rebase_slot, and set_queues reverts.
	h.ctrl.Arm(99, Retries+1, false)
	resolve(h.engine, txn)
	if txn.State() != StateRolledBack {
		t.Fatalf("state = %v", txn.State())
	}
	if got := h.sw.Config().SlotSize; got != h.cfg.SlotSize {
		t.Fatalf("slot changed on rolled-back txn: %v", got)
	}
	if h.sw.FitRebase() != nil {
		t.Fatal("schedules corrupted by rollback")
	}
}

func TestFRERResizeOps(t *testing.T) {
	h := newHarness(t)
	tbl := frer.NewTable(4, 16) // sized past frer_size, as testbed sizes a table to fit its FRER flows
	if err := tbl.Register(7); err != nil {
		t.Fatal(err)
	}
	old := h.cfg
	old.FRERSize, old.FRERHistory = 2, 16
	cand := old
	cand.FRERSize, cand.FRERHistory = 8, 32
	b := h.bindings()
	b.FRER = []*frer.Table{tbl, frer.NewTable(2, 16)}

	// A commit failing before the second table's op restores the first
	// table to what it held, not to frer_size.
	h.ctrl.Arm(1, Retries+1, false)
	failed, err := h.ctrl.Begin(old, cand, b)
	if err != nil {
		t.Fatal(err)
	}
	resolve(h.engine, failed)
	if failed.State() != StateRolledBack || tbl.Capacity() != 4 || tbl.History() != 16 {
		t.Fatalf("rollback: %v, capacity=%d history=%d, want 4/16", failed.State(), tbl.Capacity(), tbl.History())
	}

	txn, err := h.ctrl.Begin(old, cand, b)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, name := range txn.Ops() {
		if name == "frer0:set_frer_tbl" {
			found = true
		}
	}
	if !found {
		t.Fatalf("no FRER op in %v", txn.Ops())
	}
	txn.Commit()
	if txn.State() != StateCommitted {
		t.Fatalf("state = %v (%v)", txn.State(), txn.Err())
	}
	if tbl.Capacity() != 8 || tbl.History() != 32 {
		t.Fatalf("capacity=%d history=%d", tbl.Capacity(), tbl.History())
	}
	// Shrinking below the registered stream count is rejected.
	bad := cand
	bad.FRERSize = 0
	if _, err := h.ctrl.Begin(cand, bad, b); err == nil {
		t.Fatal("FRER shrink below occupancy accepted")
	}
}

// TestOpSize: Begin allocates every staged op in one slice, so a wider
// op costs each reconfiguration bytes (one more field made it 104 B).
func TestOpSize(t *testing.T) {
	if n := unsafe.Sizeof(op{}); n > 11*unsafe.Sizeof(uintptr(0)) {
		t.Fatalf("op is %d B, want at most 11 words", n)
	}
}

func TestCommitOfResolvedTxnPanics(t *testing.T) {
	h := newHarness(t)
	cand := h.cfg
	cand.QueueDepth = 16
	txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	txn.Commit()
	defer func() {
		if recover() == nil {
			t.Fatal("double commit did not panic")
		}
	}()
	txn.Commit()
}

func TestTransientFailureRetriesThenCommits(t *testing.T) {
	h := newHarness(t)
	cand := h.cfg
	cand.UnicastSize = 128 // op 0
	cand.MeterSize = 32    // op 1
	txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	// The next two commit attempts fail before op 1; the third clears.
	h.ctrl.Arm(1, 2, false)
	txn.Commit()
	if txn.State() != StatePrepared {
		t.Fatalf("state after first failure = %v, want prepared (retry pending)", txn.State())
	}
	h.engine.RunUntil(sim.Millisecond)
	if txn.State() != StateCommitted || txn.Err() != nil {
		t.Fatalf("state=%v err=%v, want committed after retries", txn.State(), txn.Err())
	}
	if got := txn.Attempts(); got != 3 {
		t.Fatalf("attempts = %d, want 3", got)
	}
	if want := 4 * h.cfg.SlotSize; txn.CommitTime() != want {
		t.Fatalf("commit time = %v, want %v (two CQF cycles)", txn.CommitTime(), want)
	}
	if got := h.reg.CounterValue(MetricRetries); got != 2 {
		t.Fatalf("retries counter = %d, want 2", got)
	}
	if got := h.reg.CounterValue(MetricTxns, metrics.L("outcome", "committed")); got != 1 {
		t.Fatalf("committed counter = %d", got)
	}
	// Failed attempts rolled their applied prefix back before retrying,
	// so the final state is exactly one clean application.
	if err := h.sw.Filter().Meters.Configure(31, ethernet.Mbps, 1500); err != nil {
		t.Fatalf("meter 31 after committed grow: %v", err)
	}
}

func TestRetryBudgetExhausted(t *testing.T) {
	h := newHarness(t)
	cand := h.cfg
	cand.MeterSize = 32
	txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	// The first attempt and all its retries fail.
	h.ctrl.Arm(0, Retries+2, false)
	txn.Commit()
	h.engine.RunUntil(sim.Millisecond)
	if txn.State() != StateRolledBack {
		t.Fatalf("state = %v, want rolled-back after budget", txn.State())
	}
	if txn.Err() == nil || !strings.Contains(txn.Err().Error(), "injected failure") {
		t.Fatalf("err = %v", txn.Err())
	}
	if got := txn.Attempts(); got != Retries+1 {
		t.Fatalf("attempts = %d, want %d (original + retries)", got, Retries+1)
	}
	if got := h.reg.CounterValue(MetricRetries); got != Retries {
		t.Fatalf("retries counter = %d, want %d", got, Retries)
	}
	// The meter table is back at its old size.
	if err := h.sw.Filter().Meters.Configure(16, ethernet.Mbps, 1500); err == nil {
		t.Fatal("meter table not restored after exhausted retries")
	}
}

func TestRetryDefaultBackoffIsTwoCycles(t *testing.T) {
	h := newHarness(t)
	cand := h.cfg
	cand.MeterSize = 32
	txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	h.ctrl.Arm(0, 1, false)
	txn.Commit()
	h.engine.RunUntil(sim.Millisecond)
	if txn.State() != StateCommitted {
		t.Fatalf("state = %v", txn.State())
	}
	if want := 2 * h.cfg.SlotSize; txn.CommitTime() != want {
		t.Fatalf("commit time = %v, want %v (2 slot cycles)", txn.CommitTime(), want)
	}
}

func TestWedgeSkipsRollbackAndRetry(t *testing.T) {
	h := newHarness(t)
	// Whatever the retry budget, a wedged failure must not retry: the
	// bug it models dies mid-commit, not transiently.
	cand := h.cfg
	cand.UnicastSize = 128 // op 0
	cand.MeterSize = 32    // op 1
	cand.QueueDepth = 16   // op 2
	txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	h.ctrl.Arm(2, 1, true)
	txn.Commit()
	h.engine.RunUntil(sim.Millisecond)
	if txn.State() != StateRolledBack {
		t.Fatalf("state = %v: the wedge must still claim rolled-back", txn.State())
	}
	if txn.Err() == nil || !strings.Contains(txn.Err().Error(), "rollback disabled") {
		t.Fatalf("err = %v", txn.Err())
	}
	if got := txn.Attempts(); got != 1 {
		t.Fatalf("attempts = %d, want 1 (no retry for a wedge)", got)
	}
	// Ops 0 and 1 stayed applied: the unicast table admits entry 64 and
	// the meter table admits id 31 — partial state the atomicity oracle
	// catches by comparing live switch config against the old config.
	for i := 0; i < 65; i++ {
		if err := h.sw.Forward().Unicast.Add(ethernet.HostMAC(i), 1, 0); err != nil {
			t.Fatalf("unicast entry %d after wedge: %v", i, err)
		}
	}
	if err := h.sw.Filter().Meters.Configure(31, ethernet.Mbps, 1500); err != nil {
		t.Fatalf("meter 31 after wedge: %v", err)
	}
	if got := h.sw.Config().QueueDepth; got != h.cfg.QueueDepth {
		t.Fatalf("queue depth = %d changed by unapplied op", got)
	}
}

// TestOnAttemptCommitPointHook: the hook fires at the start of every
// commit attempt — before the first staged operation mutates anything —
// once per attempt, with the attempt ordinal. The durability layer
// relies on this ordering to make a transaction's intent record stable
// ahead of any engine state change.
func TestOnAttemptCommitPointHook(t *testing.T) {
	h := newHarness(t)
	cand := h.cfg
	cand.MeterSize = 32
	txn, err := h.ctrl.Begin(h.cfg, cand, h.bindings())
	if err != nil {
		t.Fatal(err)
	}
	var attempts []int
	h.ctrl.OnAttempt(func(got *Txn, attempt int) {
		if got != txn {
			t.Fatal("hook saw a different transaction")
		}
		if got.State() != StatePrepared {
			t.Fatalf("hook fired with state %v, want prepared (before any op applies)", got.State())
		}
		// At the commit point nothing may have been applied yet: the
		// meter table must still be at its old size on every attempt.
		if cfgErr := h.sw.Filter().Meters.Configure(16, ethernet.Mbps, 1500); cfgErr == nil {
			t.Fatal("hook fired after a staged op applied")
		}
		attempts = append(attempts, attempt)
	})
	h.ctrl.Arm(0, 1, false)
	txn.CommitAtBoundary()
	h.engine.RunUntil(txn.CommitTime() + 1)
	for txn.State() == StatePrepared {
		h.engine.RunUntil(txn.CommitTime() + 1)
	}
	if txn.State() != StateCommitted {
		t.Fatalf("state = %v", txn.State())
	}
	if len(attempts) != 2 || attempts[0] != 1 || attempts[1] != 2 {
		t.Fatalf("hook attempts = %v, want [1 2]", attempts)
	}
}
