package reconfig

import (
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/frer"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

func TestWatchdogCleanRun(t *testing.T) {
	h := newHarness(t)
	reg := metrics.New()
	w := NewWatchdog(h.engine, reg)
	w.Watch(h.sw)
	w.Start()
	h.engine.RunUntil(10 * sim.Millisecond)
	if w.Audits() < 9 {
		t.Fatalf("audits = %d", w.Audits())
	}
	if w.TotalViolations() != 0 {
		t.Fatalf("violations on clean switch: %d (%s)", w.TotalViolations(), w.LastDetail())
	}
	if got := reg.CounterValue(MetricAudits); got != w.Audits() {
		t.Fatalf("audit counter = %d, want %d", got, w.Audits())
	}
}

func TestWatchdogDetectsBufferLeak(t *testing.T) {
	h := newHarness(t)
	reg := metrics.New()
	w := NewWatchdog(h.engine, reg)
	w.Watch(h.sw)
	w.Start()
	h.engine.At(5*sim.Millisecond, "leak", func(*sim.Engine) {
		h.sw.Port(0).Pool().Leak(2)
	})
	h.engine.RunUntil(10 * sim.Millisecond)
	if reg.CounterValue(MetricViolations, metrics.L("invariant", "buffer-conservation")) == 0 {
		t.Fatalf("leak not detected: %d violations (%s)", w.TotalViolations(), w.LastDetail())
	}
	if !strings.Contains(w.LastDetail(), "port 0") {
		t.Fatalf("detail = %q", w.LastDetail())
	}
}

func TestWatchdogDetectsFREROverflow(t *testing.T) {
	h := newHarness(t)
	tbl := frer.NewTable(2, 16)
	w := NewWatchdog(h.engine, nil)
	w.WatchFRER(tbl)
	w.Start()
	h.engine.RunUntil(3 * sim.Millisecond)
	if w.TotalViolations() != 0 {
		t.Fatalf("violations on healthy table: %d (%s)", w.TotalViolations(), w.LastDetail())
	}
}

func TestDegradationLadder(t *testing.T) {
	cfg := baseCfg()
	cfg.BufferNum = 10
	engine := sim.NewEngine()
	sw := tsnswitch.New(engine, switchCfg(cfg))
	w := NewWatchdog(engine, metrics.New())
	w.Watch(sw)
	w.Start()

	pool := sw.Port(0).Pool()
	slots := make([]int, 0, 10)
	alloc := func(n int) {
		for i := 0; i < n; i++ {
			s, ok := pool.Alloc(64)
			if !ok {
				t.Fatal("alloc failed")
			}
			slots = append(slots, s)
		}
	}
	free := func(n int) {
		for i := 0; i < n; i++ {
			pool.Free(slots[len(slots)-1])
			slots = slots[:len(slots)-1]
		}
	}

	// 8/10 = 0.8 ≥ ShedBE(0.75): shed BE.
	engine.At(500*sim.Microsecond, "fill-be", func(*sim.Engine) { alloc(8) })
	engine.RunUntil(2 * sim.Millisecond)
	if got := sw.DegradeLevel(); got != tsnswitch.DegradeShedBE {
		t.Fatalf("level at 0.8 = %v", got)
	}
	// 9/10 = 0.9 ≥ ShedRC(0.90): escalate.
	engine.At(2500*sim.Microsecond, "fill-rc", func(*sim.Engine) { alloc(1) })
	engine.RunUntil(4 * sim.Millisecond)
	if got := sw.DegradeLevel(); got != tsnswitch.DegradeShedRC {
		t.Fatalf("level at 0.9 = %v", got)
	}
	// 6/10 = 0.6: between Recover and ShedBE — hold (hysteresis).
	engine.At(4500*sim.Microsecond, "partial-drain", func(*sim.Engine) { free(3) })
	engine.RunUntil(6 * sim.Millisecond)
	if got := sw.DegradeLevel(); got != tsnswitch.DegradeShedRC {
		t.Fatalf("level at 0.6 = %v, want held shed-rc", got)
	}
	// 4/10 = 0.4 ≤ Recover(0.50): back off.
	engine.At(6500*sim.Microsecond, "drain", func(*sim.Engine) { free(2) })
	engine.RunUntil(8 * sim.Millisecond)
	if got := sw.DegradeLevel(); got != tsnswitch.DegradeOff {
		t.Fatalf("level at 0.4 = %v, want off", got)
	}
}

func TestDegradationHoldsBelowShedRC(t *testing.T) {
	// Pressure between ShedBE and ShedRC while already at ShedRC must
	// not de-escalate to ShedBE: the ladder only steps down at Recover.
	cfg := baseCfg()
	cfg.BufferNum = 100
	engine := sim.NewEngine()
	sw := tsnswitch.New(engine, switchCfg(cfg))
	w := NewWatchdog(engine, nil)
	w.Watch(sw)
	w.Start()
	pool := sw.Port(0).Pool()
	slots := []int{}
	engine.At(500*sim.Microsecond, "fill", func(*sim.Engine) {
		for i := 0; i < 95; i++ {
			s, _ := pool.Alloc(64)
			slots = append(slots, s)
		}
	})
	engine.At(2500*sim.Microsecond, "drain-to-80", func(*sim.Engine) {
		for i := 0; i < 15; i++ {
			pool.Free(slots[len(slots)-1])
			slots = slots[:len(slots)-1]
		}
	})
	engine.RunUntil(4 * sim.Millisecond)
	if got := sw.DegradeLevel(); got != tsnswitch.DegradeShedRC {
		t.Fatalf("level = %v, want shed-rc held at 0.8", got)
	}
}

// ladderRig is the shared scaffolding for the recovery tests: a
// 10-buffer switch under a watchdog auditing every millisecond, with
// alloc/free helpers to move pool pressure.
type ladderRig struct {
	engine *sim.Engine
	sw     *tsnswitch.Switch
	w      *Watchdog
	slots  []int
	t      *testing.T
}

func newLadderRig(t *testing.T) *ladderRig {
	cfg := baseCfg()
	cfg.BufferNum = 10
	engine := sim.NewEngine()
	sw := tsnswitch.New(engine, switchCfg(cfg))
	w := NewWatchdog(engine, metrics.New())
	w.Watch(sw)
	w.Start()
	return &ladderRig{engine: engine, sw: sw, w: w, t: t}
}

func (r *ladderRig) alloc(n int) {
	pool := r.sw.Port(0).Pool()
	for i := 0; i < n; i++ {
		s, ok := pool.Alloc(64)
		if !ok {
			r.t.Fatal("alloc failed")
		}
		r.slots = append(r.slots, s)
	}
}

func (r *ladderRig) free(n int) {
	pool := r.sw.Port(0).Pool()
	for i := 0; i < n; i++ {
		pool.Free(r.slots[len(r.slots)-1])
		r.slots = r.slots[:len(r.slots)-1]
	}
}

// TestDegradationRecoversInReverseOrder drives the full episode —
// shed BE, escalate to shed RC, drain, recover — and asserts the
// recovery restores classes in reverse order of shedding: RC service
// returns first (ShedRC → ShedBE), BE last (ShedBE → Off), one rung
// per audit, with the intermediate ShedBE level observable for a full
// interval.
func TestDegradationRecoversInReverseOrder(t *testing.T) {
	r := newLadderRig(t)
	r.engine.At(500*sim.Microsecond, "fill-be", func(*sim.Engine) { r.alloc(8) })  // 0.8 → ShedBE
	r.engine.At(2500*sim.Microsecond, "fill-rc", func(*sim.Engine) { r.alloc(1) }) // 0.9 → ShedRC
	r.engine.At(3500*sim.Microsecond, "drain", func(*sim.Engine) { r.free(5) })    // 0.4 ≤ Recover

	// One audit after the drain: exactly one rung down. RC restored, BE
	// still shed.
	r.engine.RunUntil(4500 * sim.Microsecond)
	if got := r.sw.DegradeLevel(); got != tsnswitch.DegradeShedBE {
		t.Fatalf("level one audit after drain = %v, want shed-be (RC restored first)", got)
	}
	// Next audit: the last rung clears.
	r.engine.RunUntil(5500 * sim.Microsecond)
	if got := r.sw.DegradeLevel(); got != tsnswitch.DegradeOff {
		t.Fatalf("level two audits after drain = %v, want off", got)
	}

	want := []struct{ from, to tsnswitch.DegradeLevel }{
		{tsnswitch.DegradeOff, tsnswitch.DegradeShedBE},
		{tsnswitch.DegradeShedBE, tsnswitch.DegradeShedRC},
		{tsnswitch.DegradeShedRC, tsnswitch.DegradeShedBE},
		{tsnswitch.DegradeShedBE, tsnswitch.DegradeOff},
	}
	trans := r.w.Transitions()
	if len(trans) != len(want) {
		t.Fatalf("transitions = %+v, want %d entries", trans, len(want))
	}
	for i, tr := range trans {
		if tr.From != want[i].from || tr.To != want[i].to {
			t.Fatalf("transition %d = %v→%v, want %v→%v", i, tr.From, tr.To, want[i].from, want[i].to)
		}
		if tr.Switch != r.sw.ID() {
			t.Fatalf("transition %d switch = %d", i, tr.Switch)
		}
		if i > 0 && tr.At <= trans[i-1].At {
			t.Fatalf("transition times not increasing: %v then %v", trans[i-1].At, tr.At)
		}
		// The ladder contract the chaos oracle checks: every downward
		// move steps exactly one rung.
		if tr.To < tr.From && tr.From-tr.To != 1 {
			t.Fatalf("transition %d skips rungs: %v→%v", i, tr.From, tr.To)
		}
	}
}

// TestDegradationLadderRearms: after a full recovery, a second pressure
// episode must re-engage shedding — the ladder re-arms rather than
// latching off after its first violation clears.
func TestDegradationLadderRearms(t *testing.T) {
	r := newLadderRig(t)
	// Episode one: straight to ShedRC, then drain out.
	r.engine.At(500*sim.Microsecond, "fill", func(*sim.Engine) { r.alloc(9) })
	r.engine.At(1500*sim.Microsecond, "drain", func(*sim.Engine) { r.free(9) })
	r.engine.RunUntil(4 * sim.Millisecond)
	if got := r.sw.DegradeLevel(); got != tsnswitch.DegradeOff {
		t.Fatalf("level after episode one = %v, want off", got)
	}
	first := len(r.w.Transitions())
	if first == 0 {
		t.Fatal("episode one drove no transitions")
	}
	// Episode two: pressure returns; the ladder must engage again.
	r.engine.At(4500*sim.Microsecond, "refill", func(*sim.Engine) { r.alloc(8) })
	r.engine.RunUntil(6 * sim.Millisecond)
	if got := r.sw.DegradeLevel(); got != tsnswitch.DegradeShedBE {
		t.Fatalf("level in episode two = %v, want shed-be (ladder re-armed)", got)
	}
	r.engine.At(6500*sim.Microsecond, "drain2", func(*sim.Engine) { r.free(8) })
	r.engine.RunUntil(8 * sim.Millisecond)
	if got := r.sw.DegradeLevel(); got != tsnswitch.DegradeOff {
		t.Fatalf("level after episode two = %v, want off again", got)
	}
	trans := r.w.Transitions()
	if len(trans) <= first {
		t.Fatalf("episode two added no transitions (still %d)", first)
	}
	last := trans[len(trans)-1]
	if last.To != tsnswitch.DegradeOff {
		t.Fatalf("final transition = %v→%v, want →off", last.From, last.To)
	}
}
