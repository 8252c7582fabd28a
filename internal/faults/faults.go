// Package faults is a deterministic fault-scenario engine for the
// testbed: a JSON scenario lists faults (what, where, when), and the
// Injector schedules them through the simulation engine so every run
// with the same seed and scenario replays identically. Faults cover
// the physical layer (link down/up, flapping, probabilistic loss, bit
// corruption), time sync (clock frequency steps, grandmaster death),
// buffering (transient pool exhaustion) and gating (gate-table
// misconfiguration).
//
// Two hard rules shape the implementation. First, a fault must never
// leak an in-flight completion or strand the scheduler: link faults
// suppress deliveries but never interrupt MAC timing (see
// netdev.SetLink), gate and buffer faults always schedule their own
// recovery, and nothing here blocks. Second, everything is counted:
// each injection and recovery increments a per-kind counter in the
// metrics registry, and link-level drops are attributed per link and
// reason.
package faults

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/bits"
	"os"

	"github.com/tsnbuilder/tsnbuilder/internal/clock"
	"github.com/tsnbuilder/tsnbuilder/internal/gate"
	"github.com/tsnbuilder/tsnbuilder/internal/gptp"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

// Fault kinds accepted in scenario files.
const (
	KindLinkDown      = "link-down"      // cable pull: a/b or host, at_us
	KindLinkUp        = "link-up"        // cable restore: a/b or host, at_us
	KindLinkFlap      = "link-flap"      // alternating down/up: + period_us, count
	KindLinkLoss      = "link-loss"      // probabilistic loss: + prob, duration_us
	KindLinkCorrupt   = "link-corrupt"   // FCS-failing bit errors: + prob, duration_us
	KindClockStep     = "clock-step"     // phase jump: switch, step_ns
	KindClockDrift    = "clock-drift"    // frequency step: switch, drift_ppb
	KindGMKill        = "gm-kill"        // silent grandmaster death, at_us
	KindNodeKill      = "node-kill"      // silent gPTP node death: switch
	KindBufferExhaust = "buffer-exhaust" // pool starvation: switch, port, slots, duration_us
	KindGateClose     = "gate-close"     // TS gates stuck closed: switch, port, duration_us
	KindBufferLeak    = "buffer-leak"    // permanent slot loss: switch, port, slots
	// KindReconfigFail fails the next reconfig commit mid-apply before
	// staged op `op` on every attempt its retries make (Retries+1), so
	// the transaction rolls back.
	KindReconfigFail = "reconfig-fail"
	// KindReconfigTransient fails the next `count` reconfig commit
	// attempts mid-apply before staged op `op`, then clears — the
	// transient staging failure the engine's bounded retry absorbs.
	KindReconfigTransient = "reconfig-transient"
	// KindReconfigWedge fails the next reconfig commit mid-apply with
	// the rollback path disabled: applied operations stay in place while
	// the transaction claims rolled-back. A deliberately seeded
	// atomicity bug for the chaos oracles.
	KindReconfigWedge = "reconfig-wedge"
)

// Metric names.
const (
	// MetricInjected counts fault activations, labeled by kind.
	MetricInjected = "tsn_faults_injected_total"
	// MetricRecovered counts fault recoveries (link back up, impairment
	// cleared, buffers released, gates restored), labeled by kind.
	MetricRecovered = "tsn_faults_recovered_total"
	// MetricLinkDrops counts frames lost to link faults, labeled by
	// link and reason (link-down / loss / corrupt).
	MetricLinkDrops = "tsn_link_drops_total"
)

// Scenario is the root JSON document of a fault-scenario file.
type Scenario struct {
	// Seed drives the probabilistic impairments. Zero defers to the
	// seed the Injector was created with (tsnsim's -seed).
	Seed   uint64  `json:"seed,omitempty"`
	Faults []Fault `json:"faults"`
}

// Fault is one scheduled fault. Which fields apply depends on Kind;
// Validate enforces the combinations.
type Fault struct {
	// AtUs is the activation time in microseconds after scenario start.
	AtUs int64  `json:"at_us"`
	Kind string `json:"kind"`

	// A/B select the trunk link between switches A and B; Host selects
	// a host's access link instead.
	A    *int `json:"a,omitempty"`
	B    *int `json:"b,omitempty"`
	Host *int `json:"host,omitempty"`

	// Switch/Port select a switch (clock/node faults) or one of its
	// ports (buffer/gate faults).
	Switch *int `json:"switch,omitempty"`
	Port   *int `json:"port,omitempty"`

	// DurationUs bounds transient faults (loss, corruption, buffer
	// exhaustion, gate misconfiguration): recovery is scheduled at
	// AtUs + DurationUs.
	DurationUs int64 `json:"duration_us,omitempty"`
	// PeriodUs and Count shape link flapping: Count down/up cycles of
	// PeriodUs each (half down, half up). On reconfig-transient, Count
	// is how many commit attempts fail (absent: one).
	PeriodUs int64 `json:"period_us,omitempty"`
	Count    int   `json:"count,omitempty"`
	// Prob is the per-frame loss/corruption probability.
	Prob float64 `json:"prob,omitempty"`
	// StepNs is the clock phase jump; DriftPPB the new oscillator
	// frequency error.
	StepNs   int64 `json:"step_ns,omitempty"`
	DriftPPB int64 `json:"drift_ppb,omitempty"`
	// Slots is how many buffer slots the exhaustion or leak fault
	// removes from service.
	Slots int `json:"slots,omitempty"`
	// Op is the staged-operation index a reconfig-* fault arms: the next
	// reconfiguration commit fails right before that operation.
	Op *int `json:"op,omitempty"`
}

// Load reads a scenario file.
func Load(path string) (*Scenario, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	sc, err := Parse(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return sc, nil
}

// Parse decodes and validates a scenario. Unknown fields are errors,
// so a typo cannot silently disable a fault.
func Parse(r io.Reader) (*Scenario, error) {
	dec := json.NewDecoder(r)
	dec.DisallowUnknownFields()
	var sc Scenario
	if err := dec.Decode(&sc); err != nil {
		return nil, fmt.Errorf("faults: %w", err)
	}
	if err := sc.Validate(); err != nil {
		return nil, err
	}
	return &sc, nil
}

// selector is what a kind acts on.
type selector uint8

const (
	selLink       selector = iota // a+b (trunk) or host (access link): both directions of one cable
	selSwitch                     // switch, and port where the kind takes one
	selNode                       // switch, as its gPTP node
	selDomain                     // the gPTP domain: its current grandmaster
	selController                 // the reconfiguration controller
)

// fieldSet is a set of optional Fault fields: bit i is fieldNames[i].
type fieldSet uint16

const (
	fA fieldSet = 1 << iota
	fB
	fHost
	fSwitch
	fPort
	fDuration
	fPeriod
	fCount
	fProb
	fStep
	fDrift
	fSlots
	fOp
)

// fieldNames are the JSON names of the fieldSet bits, in bit order: a
// fault's lowest foreign bit is the field its error names.
var fieldNames = [...]string{"a", "b", "host", "switch", "port", "duration_us", "period_us",
	"count", "prob", "step_ns", "drift_ppb", "slots", "op"}

// selFields are the fields each selector takes.
var selFields = [selController + 1]fieldSet{selLink: fA | fB | fHost, selSwitch: fSwitch, selNode: fSwitch}

// kind is one row of the fault-kind table: all that validation,
// duplicate detection, metric registration and Apply know of a kind.
type kind struct {
	name string
	// sel is what the kind acts on; it fixes the selector fields the
	// kind takes and what Apply resolves them to.
	sel selector
	// fields are the optional fields the kind takes beyond its
	// selector's.
	fields fieldSet
	// check, when set, validates the kind's parameters once its fields
	// and selector have passed.
	check func(f *Fault) error
	bind  binder
	// restoreAtOn books each recovery under a fresh order number, not a
	// reserved one: the state off puts back is known only at activation.
	restoreAtOn bool
	// aims are the selectors the chaos campaign draws the kind on, one
	// menu entry each (none keeps it off the menu), and draw, when set,
	// draws its parameters; dur draws a duration in µs.
	aims []Aim
	draw func(f *Fault, rng *sim.Rand, dur func() int64)
}

// binder resolves a fault's bindings into what it does to its target
// at each activation (on) and each recovery (off); either may be nil.
type binder func(f *Fault, t *target) (on, off func(*sim.Engine))

// kinds lists every kind once. The chaos campaign draws its menu by
// walking the rows in this order, so a new kind appends at the end:
// inserting one would shift every existing campaign's draws. (Metric
// exports sort by label value and do not care.)
var kinds = []kind{
	{name: KindLinkDown, sel: selLink, aims: []Aim{AimTrunk, AimHost}, bind: func(_ *Fault, t *target) (on, off func(*sim.Engine)) {
		return func(*sim.Engine) { t.fwd.SetLink(false) }, nil
	}},
	{name: KindLinkUp, sel: selLink, bind: func(_ *Fault, t *target) (on, off func(*sim.Engine)) {
		return nil, func(*sim.Engine) { t.fwd.SetLink(true) }
	}},
	{name: KindLinkFlap, sel: selLink, fields: fPeriod | fCount, aims: []Aim{AimTrunk},
		check: func(f *Fault) error { return need(f, f.PeriodUs > 0 && f.Count > 0, "positive period_us and count") },
		bind: func(_ *Fault, t *target) (on, off func(*sim.Engine)) {
			return func(*sim.Engine) { t.fwd.SetLink(false) }, func(*sim.Engine) { t.fwd.SetLink(true) }
		},
		draw: func(f *Fault, rng *sim.Rand, dur func() int64) { f.PeriodUs, f.Count = 2*dur(), 1+rng.Intn(3) }},
	{name: KindLinkLoss, sel: selLink, fields: fProb | fDuration, aims: []Aim{AimTrunk},
		check: checkImpair, bind: impair(true), draw: drawImpair},
	{name: KindLinkCorrupt, sel: selLink, fields: fProb | fDuration, aims: []Aim{AimTrunk},
		check: checkImpair, bind: impair(false), draw: drawImpair},
	{name: KindClockStep, sel: selSwitch, fields: fStep, aims: []Aim{AimSwitch},
		check: func(f *Fault) error { return need(f, f.StepNs != 0, "non-zero step_ns") },
		bind: func(f *Fault, t *target) (on, off func(*sim.Engine)) {
			step := sim.Time(f.StepNs) * sim.Nanosecond
			return func(e *sim.Engine) { t.sw.Clock.Step(e.Now(), step) }, nil
		},
		draw: func(f *Fault, rng *sim.Rand, _ func() int64) {
			f.StepNs = (1 + rng.Int63n(500_000)) * int64(1-2*rng.Intn(2))
		}},
	{name: KindClockDrift, sel: selSwitch, fields: fDrift, aims: []Aim{AimSwitch}, bind: func(f *Fault, t *target) (on, off func(*sim.Engine)) {
		drift := clock.PPB(f.DriftPPB)
		return func(e *sim.Engine) { t.sw.Clock.SetDrift(e.Now(), drift) }, nil
	}, draw: func(f *Fault, rng *sim.Rand, _ func() int64) { f.DriftPPB = rng.Int63n(200_000) - 100_000 }},
	{name: KindGMKill, sel: selDomain, bind: func(_ *Fault, t *target) (on, off func(*sim.Engine)) {
		return func(*sim.Engine) {
			if gm := t.dom.Grandmaster(); gm != nil {
				t.dom.KillNode(gm)
			}
		}, nil
	}},
	{name: KindNodeKill, sel: selNode, bind: func(_ *Fault, t *target) (on, off func(*sim.Engine)) {
		return func(*sim.Engine) { t.dom.KillNode(t.node) }, nil
	}},
	{name: KindBufferExhaust, sel: selSwitch, fields: fPort | fSlots | fDuration, aims: []Aim{AimSwitch},
		check: func(f *Fault) error {
			return need(f, f.Port != nil && f.Slots > 0 && f.DurationUs > 0, "port, positive slots and duration_us")
		},
		bind: func(f *Fault, t *target) (on, off func(*sim.Engine)) {
			pool, slots := t.sw.Port(*f.Port).Pool(), f.Slots
			return func(*sim.Engine) { pool.Reserve(slots) }, func(*sim.Engine) { pool.ReleaseReserved() }
		},
		draw: func(f *Fault, rng *sim.Rand, dur func() int64) { f.Slots, f.DurationUs = 1+rng.Intn(8), dur() }},
	{name: KindGateClose, sel: selSwitch, fields: fPort | fDuration, restoreAtOn: true, aims: []Aim{AimSwitch},
		check: func(f *Fault) error {
			return need(f, f.Port != nil && f.DurationUs > 0, "port and positive duration_us")
		},
		bind: func(f *Fault, t *target) (on, off func(*sim.Engine)) {
			sw, port, cfg := t.sw, *f.Port, t.sw.Config()
			// The misconfigured GCL keeps every gate open EXCEPT the TS
			// queues — the paper's CQF pair is stuck closed, so TS frames
			// drop with reason gate-closed while RC/BE continue.
			closed := gate.Mask(1<<uint(cfg.QueuesPerPort)-1) &^ (1<<uint(cfg.TSQueueA) | 1<<uint(cfg.TSQueueB))
			stuck := gate.Entry{Mask: closed, Duration: cfg.SlotSize}
			bad := gate.NewGCL([]gate.Entry{stuck, stuck})
			var in, out *gate.GCL
			return func(*sim.Engine) {
					in, out = sw.PortSchedules(port)
					if err := sw.SetPortSchedules(port, bad, bad); err != nil {
						panic(fmt.Sprintf("faults: %s %s: %v", KindGateClose, t.key, err))
					}
				}, func(*sim.Engine) {
					if err := sw.SetPortSchedules(port, in, out); err != nil {
						panic(fmt.Sprintf("faults: %s restore %s: %v", KindGateClose, t.key, err))
					}
				}
		},
		draw: func(f *Fault, _ *sim.Rand, dur func() int64) { f.DurationUs = dur() }},
	// A leak never recovers: the slots are gone until the watchdog (or
	// a human) notices the conservation violation.
	{name: KindBufferLeak, sel: selSwitch, fields: fPort | fSlots,
		check: func(f *Fault) error { return need(f, f.Port != nil && f.Slots > 0, "port and positive slots") },
		bind: func(f *Fault, t *target) (on, off func(*sim.Engine)) {
			pool, slots := t.sw.Port(*f.Port).Pool(), f.Slots
			return func(*sim.Engine) { pool.Leak(slots) }, nil
		}},
	{name: KindReconfigFail, sel: selController, fields: fOp, check: checkArm, bind: arm(reconfig.Retries+1, false)},
	{name: KindReconfigTransient, sel: selController, fields: fOp | fCount, check: checkArm, bind: arm(1, false)},
	{name: KindReconfigWedge, sel: selController, fields: fOp, check: checkArm, bind: arm(1, true)},
}

// fields returns the optional fields f populates, as bits in fieldNames
// order. Pointer fields count when non-nil, value fields when non-zero
// (their zero values are indistinguishable from absent).
func (f *Fault) fields() fieldSet {
	var s fieldSet
	for i, set := range [...]bool{f.A != nil, f.B != nil, f.Host != nil, f.Switch != nil,
		f.Port != nil, f.DurationUs != 0, f.PeriodUs != 0, f.Count != 0, f.Prob != 0,
		f.StepNs != 0, f.DriftPPB != 0, f.Slots != 0, f.Op != nil} {
		if set {
			s |= 1 << i
		}
	}
	return s
}

// need returns "<kind> needs <what>" unless ok.
func need(f *Fault, ok bool, what string) error {
	if ok {
		return nil
	}
	return fmt.Errorf("%s needs %s", f.Kind, what)
}

func checkImpair(f *Fault) error {
	if f.Prob <= 0 || f.Prob > 1 {
		return fmt.Errorf("%s prob %v outside (0,1]", f.Kind, f.Prob)
	}
	return need(f, f.DurationUs > 0, "positive duration_us")
}

func drawImpair(f *Fault, rng *sim.Rand, dur func() int64) {
	f.Prob, f.DurationUs = 0.05+0.4*rng.Float64(), dur()
}

func checkArm(f *Fault) error {
	if f.Op != nil && *f.Op < 0 {
		return fmt.Errorf("%s op %d negative", f.Kind, *f.Op)
	}
	if f.Count < 0 {
		return fmt.Errorf("%s count %d negative", f.Kind, f.Count)
	}
	return nil
}

// impair binds link-loss (loss) or link-corrupt on both directions of
// the cable. Each direction draws from its own deterministic stream,
// derived from the seed and the link label, so reordering faults in
// the file cannot change per-link outcomes.
func impair(loss bool) binder {
	return func(f *Fault, t *target) (on, off func(*sim.Engine)) {
		lossP, corruptP := f.Prob, 0.0
		if !loss {
			lossP, corruptP = 0, f.Prob
		}
		rngF := sim.NewRand(t.seed ^ fnv1a(t.key+"/fwd/"+f.Kind))
		rngR := sim.NewRand(t.seed ^ fnv1a(t.key+"/rev/"+f.Kind))
		return func(*sim.Engine) {
				t.fwd.SetImpairment(lossP, corruptP, rngF)
				t.rev.SetImpairment(lossP, corruptP, rngR)
			}, func(*sim.Engine) {
				t.fwd.ClearImpairment()
				t.rev.ClearImpairment()
			}
	}
}

// arm binds the reconfig-* kinds: the next commit fails before staged
// op `op` (absent: 0) for `times` attempts — on reconfig-transient its
// `count` (absent: one) — and wedged disables its rollback.
func arm(times int, wedged bool) binder {
	return func(f *Fault, t *target) (on, off func(*sim.Engine)) {
		op, n := 0, max(times, f.Count)
		if f.Op != nil {
			op = *f.Op
		}
		return func(*sim.Engine) { t.ctrl.Arm(op, n, wedged) }, nil
	}
}

// lookup returns the row of the named kind, or -1.
func lookup(name string) int {
	for i := range kinds {
		if kinds[i].name == name {
			return i
		}
	}
	return -1
}

// Validate checks every fault's field combination, then rejects
// duplicate targeting: two faults of the same kind on the same target
// with overlapping active windows would silently double-schedule
// (flaps interleave, impairments clear early), so the scenario is a
// bug, not a stress test. Last, it rejects a window that ends past the
// simulated clock's range, where µs × 1000 would wrap.
func (sc *Scenario) Validate() error { return sc.validate(0) }

// validate is Validate for a scenario that starts at base.
func (sc *Scenario) validate(base sim.Time) error {
	for i := range sc.Faults {
		if err := sc.Faults[i].validate(); err != nil {
			return fmt.Errorf("faults: fault %d: %w", i, err)
		}
	}
	for i := range sc.Faults {
		for j := 0; j < i; j++ {
			a, b := &sc.Faults[j], &sc.Faults[i]
			if a.Kind != b.Kind || a.targetKey() != b.targetKey() {
				continue
			}
			as, ae := a.Window()
			bs, be := b.Window()
			if as < be && bs < ae {
				return fmt.Errorf("faults: fault %d duplicates fault %d: %s on %s, active windows [%d,%d)µs and [%d,%d)µs overlap",
					i, j, b.Kind, b.targetKey(), as, ae, bs, be)
			}
		}
	}
	limit := int64((math.MaxInt64 - base) / sim.Microsecond)
	for i := range sc.Faults {
		if !sc.Faults[i].endsBy(limit) {
			return fmt.Errorf("faults: fault %d: active window ends past %dµs, the end of the simulated clock", i, limit)
		}
	}
	return nil
}

func (f *Fault) validate() error {
	if f.AtUs < 0 {
		return fmt.Errorf("negative at_us %d", f.AtUs)
	}
	ki := lookup(f.Kind)
	if ki < 0 {
		return fmt.Errorf("unknown kind %q", f.Kind)
	}
	k := &kinds[ki]
	if foreign := f.fields() &^ (k.fields | selFields[k.sel]); foreign != 0 {
		return fmt.Errorf("field %q is not valid for kind %q", fieldNames[bits.TrailingZeros16(uint16(foreign))], f.Kind)
	}
	var err error
	switch k.sel {
	case selLink:
		err = need(f, (f.A != nil && f.B != nil) != (f.Host != nil), "either a+b or host")
	case selSwitch, selNode:
		err = need(f, f.Switch != nil, "switch")
	}
	if err == nil && k.check != nil {
		err = k.check(f)
	}
	return err
}

// targetKey is the stable label of what a fault acts on, used for
// duplicate detection. Faults of the same kind collide only when these
// keys match; a trunk selector is directional (a→b and b→a impair
// different directions and may coexist).
func (f *Fault) targetKey() string {
	switch {
	case f.A != nil && f.B != nil:
		return fmt.Sprintf("sw%d-sw%d", *f.A, *f.B)
	case f.Host != nil:
		return fmt.Sprintf("host%d", *f.Host)
	case f.Switch != nil && f.Port != nil:
		return fmt.Sprintf("sw%d.p%d", *f.Switch, *f.Port)
	case f.Switch != nil:
		return fmt.Sprintf("sw%d", *f.Switch)
	default:
		return "global"
	}
}

// Window returns the fault's active interval [start, end) in µs, read
// from its own fields: a flap spans all its cycles, a transient fault
// its duration, and a point fault the one µs [at_us, at_us+1) — two
// point faults duplicate each other only at the exact same at_us.
func (f *Fault) Window() (start, end int64) {
	if f.PeriodUs != 0 {
		return f.AtUs, f.AtUs + f.PeriodUs*int64(f.Count)
	}
	return f.AtUs, f.AtUs + max(f.DurationUs, 1)
}

// endsBy reports whether the validated fault's window ends by limit µs,
// computed without overflow.
func (f *Fault) endsBy(limit int64) bool {
	room := limit - f.AtUs
	if f.PeriodUs != 0 {
		return int64(f.Count) <= room/f.PeriodUs
	}
	return max(f.DurationUs, 1) <= room
}

// Bindings resolves scenario selectors to live testbed objects. The
// testbed provides these so this package needs no dependency on it.
type Bindings struct {
	// TrunkIfc returns the interface on switch a facing switch b (its
	// Peer is the reverse direction).
	TrunkIfc func(a, b int) (*netdev.Ifc, error)
	// HostIfc returns host's NIC-side access interface.
	HostIfc func(host int) (*netdev.Ifc, error)
	// Switch returns a switch by ID.
	Switch func(id int) (*tsnswitch.Switch, error)
	// Domain is the gPTP domain; nil when time sync is disabled, which
	// makes gm-kill and node-kill scenario errors.
	Domain *gptp.Domain
	// Reconfig is the reconfiguration controller the reconfig-* kinds
	// arm; nil makes them scenario errors.
	Reconfig *reconfig.Controller
}

// target is a fault's selector resolved against the Bindings.
type target struct {
	key      string               // targetKey: event labels and RNG streams
	seed     uint64               // the scenario's impairment seed
	fwd, rev *netdev.Ifc          // selLink
	sw       *tsnswitch.Switch    // selSwitch
	dom      *gptp.Domain         // selNode, selDomain
	node     *gptp.Node           // selNode
	ctrl     *reconfig.Controller // selController
}

// Injector schedules a scenario's faults on a simulation engine.
type Injector struct {
	engine *sim.Engine
	reg    *metrics.Registry
	seed   uint64

	// injected and recovered count each kind's activations and
	// recoveries, by row: the per-kind counters' cells.
	injected  []uint64
	recovered []uint64

	// OnInject, when set, runs on the simulation thread at every fault
	// activation — the observability layer dumps the flight recorder
	// from it. Set before the scenario starts firing.
	OnInject func(kind string)
}

// NewInjector creates an injector. seed drives the probabilistic
// impairments (a scenario's own Seed field overrides it); reg may be
// nil for uncounted use.
func NewInjector(engine *sim.Engine, seed uint64, reg *metrics.Registry) *Injector {
	inj := &Injector{
		engine:    engine,
		reg:       reg,
		seed:      seed,
		injected:  make([]uint64, len(kinds)),
		recovered: make([]uint64, len(kinds)),
	}
	injected := reg.Counters(MetricInjected, "fault activations by kind", "kind")
	recovered := reg.Counters(MetricRecovered, "fault recoveries by kind", "kind")
	for i, k := range kinds {
		injected.Bind(&inj.injected[i], metrics.Name(k.name))
		recovered.Bind(&inj.recovered[i], metrics.Name(k.name))
	}
	return inj
}

// Injected returns the total number of fault activations so far.
func (inj *Injector) Injected() uint64 { return sum(inj.injected) }

// Recovered returns the total number of fault recoveries so far.
func (inj *Injector) Recovered() uint64 { return sum(inj.recovered) }

// sum totals per-kind counts.
func sum(counts []uint64) (n uint64) {
	for _, c := range counts {
		n += c
	}
	return n
}

func (inj *Injector) markInjected(k int) {
	inj.injected[k]++
	if inj.OnInject != nil {
		inj.OnInject(kinds[k].name)
	}
}

func (inj *Injector) markRecovered(k int) {
	inj.recovered[k]++
}

// fnv1a hashes a label so each impaired link direction gets its own
// deterministic random stream regardless of scenario ordering.
func fnv1a(s string) uint64 {
	h := uint64(14695981039346656037)
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= 1099511628211
	}
	return h
}

// Apply validates every fault in sc, resolves its target and schedules
// it relative to the engine's current time. Call once, before Run.
func (inj *Injector) Apply(sc *Scenario, b Bindings) error {
	base := inj.engine.Now()
	if err := sc.validate(base); err != nil {
		return err
	}
	seed := inj.seed
	if sc.Seed != 0 {
		seed = sc.Seed
	}
	for i := range sc.Faults {
		f := &sc.Faults[i]
		t := &target{key: f.targetKey(), seed: seed}
		k := lookup(f.Kind)
		if err := inj.resolve(f, kinds[k].sel, b, t); err != nil {
			return fmt.Errorf("faults: fault %d (%s): %w", i, f.Kind, err)
		}
		inj.schedule(k, f, base+sim.Time(f.AtUs)*sim.Microsecond, t)
	}
	return nil
}

// resolve fills t with the live object sel names. A link also gets
// per-reason drop counters on both directions (idempotent: the
// registry returns the same handles).
func (inj *Injector) resolve(f *Fault, sel selector, b Bindings, t *target) error {
	var err error
	switch sel {
	case selLink:
		var ifc *netdev.Ifc
		switch {
		case f.Host != nil && b.HostIfc == nil:
			return fmt.Errorf("no host binding")
		case f.Host != nil:
			if ifc, err = b.HostIfc(*f.Host); err == nil && ifc.Peer() == nil {
				err = fmt.Errorf("host %d interface not cabled", *f.Host)
			}
		case b.TrunkIfc == nil:
			return fmt.Errorf("no trunk binding")
		default:
			ifc, err = b.TrunkIfc(*f.A, *f.B)
		}
		if err != nil {
			return err
		}
		t.fwd, t.rev = ifc, ifc.Peer()
		if inj.reg == nil {
			return nil
		}
		drops := inj.reg.Counters(MetricLinkDrops, "frames lost to link faults by link and reason", "link", "reason")
		for _, d := range [...]struct {
			ifc *netdev.Ifc
			dir string
		}{{t.fwd, "fwd"}, {t.rev, "rev"}} {
			link := metrics.Name(t.key + "/" + d.dir)
			d.ifc.InstrumentLink(
				drops.With(link, metrics.Name("link-down")),
				drops.With(link, metrics.Name("loss")),
				drops.With(link, metrics.Name("corrupt")),
			)
		}
	case selSwitch:
		if b.Switch == nil {
			return fmt.Errorf("no switch binding")
		}
		if t.sw, err = b.Switch(*f.Switch); err != nil {
			return err
		}
		if p := f.Port; p != nil && (*p < 0 || *p >= t.sw.Config().Ports) {
			return fmt.Errorf("switch %d has no port %d", *f.Switch, *p)
		}
	case selNode, selDomain:
		if t.dom = b.Domain; t.dom == nil {
			return fmt.Errorf("%s without a gPTP domain", f.Kind)
		}
		if sel == selDomain {
			return nil
		}
		for _, n := range t.dom.Nodes() {
			if n.ID == *f.Switch {
				t.node = n
				return nil
			}
		}
		return fmt.Errorf("no gPTP node for switch %d", *f.Switch)
	case selController:
		if t.ctrl = b.Reconfig; t.ctrl == nil {
			return fmt.Errorf("%s without a reconfiguration controller", f.Kind)
		}
	}
	return nil
}

// schedule books row k's fault from the fault's own fields: a flap
// activates count times a period apart, every other kind once, and each
// recovery follows its activation by half a period on a flap, by
// duration_us otherwise. Apply books the first activation, which books
// its recovery and the next cycle, so a flap of any count holds at most
// two pending events. Apply reserves, in one block, the order numbers
// booking every event at once would take, and each booking takes its
// own, so the same-instant order is unchanged.
func (inj *Injector) schedule(k int, f *Fault, at sim.Time, t *target) {
	row := &kinds[k]
	on, off := row.bind(f, t)
	label := "fault:" + f.Kind + ":" + t.key
	n, every, hold := 1, sim.Time(0), sim.Time(f.DurationUs)*sim.Microsecond
	if f.PeriodUs != 0 {
		n, every = f.Count, sim.Time(f.PeriodUs)*sim.Microsecond
		hold = every / 2
	}
	restore := func(e *sim.Engine) {
		off(e)
		inj.markRecovered(k)
	}
	if on == nil {
		inj.engine.At(at+hold, label, restore)
		return
	}
	per := uint64(1) // a cycle's numbers: its activation's, then its recovery's
	if off != nil && !row.restoreAtOn {
		per = 2
	}
	seq := inj.engine.TakeSeqs(uint64(n) * per)
	var activate sim.Handler
	activate = func(e *sim.Engine) {
		on(e)
		inj.markInjected(k)
		switch {
		case row.restoreAtOn:
			e.At(e.Now()+hold, label, restore)
		case off != nil:
			e.AtSeq(e.Now()+hold, seq+1, label, restore)
		}
		if n--; n > 0 {
			seq += per
			e.AtSeq(e.Now()+every, seq, label, activate)
		}
	}
	inj.engine.AtSeq(at, seq, label, activate)
}

// Aim is a selector the chaos campaign draws a kind on.
type Aim uint8

const (
	AimTrunk  Aim = iota // a+b: a directed trunk
	AimHost              // host: an access link
	AimSwitch            // switch, and port 0 where the kind takes a port
)

// Pick is one entry of the chaos campaign's fault menu: a kind and the
// selector it is drawn on.
type Pick struct {
	Kind string
	Aim  Aim
}

// Menu lists the campaign's picks: each row's aims, rows in table order.
func Menu() []Pick {
	var m []Pick
	for _, k := range kinds {
		for _, a := range k.aims {
			m = append(m, Pick{k.name, a})
		}
	}
	return m
}

// Targets are the candidates a campaign draws before it picks: a
// directed trunk a→b, a host and a switch.
type Targets struct{ A, B, Host, Switch int }

// Draw returns p's fault at atUs on the target in t that p aims at, its
// parameters drawn from rng in the row's fixed order.
func (p Pick) Draw(atUs int64, t Targets, rng *sim.Rand, dur func() int64) Fault {
	k := &kinds[lookup(p.Kind)]
	f := Fault{AtUs: atUs, Kind: p.Kind}
	switch p.Aim {
	case AimTrunk:
		f.A, f.B = &t.A, &t.B
	case AimHost:
		f.Host = &t.Host
	case AimSwitch:
		f.Switch = &t.Switch
		if k.fields&fPort != 0 {
			f.Port = new(int)
		}
	}
	if k.draw != nil {
		k.draw(&f, rng, dur)
	}
	return f
}
