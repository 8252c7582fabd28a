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
	KindReconfigFail  = "reconfig-fail"  // fail next reconfig commit mid-apply: op
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

// kinds lists every kind once, in the fixed order used for metric
// registration (determinism: registration order must not depend on the
// scenario content). New kinds append at the end so existing metric
// orderings never shift.
var kinds = []string{
	KindLinkDown, KindLinkUp, KindLinkFlap, KindLinkLoss, KindLinkCorrupt,
	KindClockStep, KindClockDrift, KindGMKill, KindNodeKill,
	KindBufferExhaust, KindGateClose, KindBufferLeak, KindReconfigFail,
	KindReconfigTransient, KindReconfigWedge,
}

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

// Validate checks every fault's field combination, then rejects
// duplicate targeting: two faults of the same kind on the same target
// with overlapping active windows would silently double-schedule
// (flaps interleave, impairments clear early), so the scenario is a
// bug, not a stress test.
func (sc *Scenario) Validate() error {
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
			as, ae := a.window()
			bs, be := b.window()
			if as < be && bs < ae {
				return fmt.Errorf("faults: fault %d duplicates fault %d: %s on %s, active windows [%d,%d)µs and [%d,%d)µs overlap",
					i, j, b.Kind, b.targetKey(), as, ae, bs, be)
			}
		}
	}
	return nil
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

// window returns the fault's active interval [start, end) in µs.
// Durational kinds span their duration, flaps span all cycles, and
// point kinds occupy a single instant — two point faults duplicate
// each other only at the exact same at_us.
func (f *Fault) window() (start, end int64) {
	start = f.AtUs
	switch f.Kind {
	case KindLinkFlap:
		return start, start + f.PeriodUs*int64(f.Count)
	case KindLinkLoss, KindLinkCorrupt, KindBufferExhaust, KindGateClose:
		return start, start + f.DurationUs
	default:
		return start, start + 1
	}
}

// allowedFields whitelists, per kind, the selector/parameter fields a
// fault may set. Validation rejects any other populated field with a
// descriptive error: a misplaced "prob" on a link-down fault is a
// scenario bug, not something to silently ignore.
var allowedFields = map[string]map[string]bool{
	KindLinkDown:          {"a": true, "b": true, "host": true},
	KindLinkUp:            {"a": true, "b": true, "host": true},
	KindLinkFlap:          {"a": true, "b": true, "host": true, "period_us": true, "count": true},
	KindLinkLoss:          {"a": true, "b": true, "host": true, "prob": true, "duration_us": true},
	KindLinkCorrupt:       {"a": true, "b": true, "host": true, "prob": true, "duration_us": true},
	KindClockStep:         {"switch": true, "step_ns": true},
	KindClockDrift:        {"switch": true, "drift_ppb": true},
	KindGMKill:            {},
	KindNodeKill:          {"switch": true},
	KindBufferExhaust:     {"switch": true, "port": true, "slots": true, "duration_us": true},
	KindGateClose:         {"switch": true, "port": true, "duration_us": true},
	KindBufferLeak:        {"switch": true, "port": true, "slots": true},
	KindReconfigFail:      {"op": true},
	KindReconfigTransient: {"op": true, "count": true},
	KindReconfigWedge:     {"op": true},
}

// presentFields lists the optional fields this fault populates, by
// JSON name. Pointer fields count when non-nil, value fields when
// non-zero (their zero values are indistinguishable from absent).
func (f *Fault) presentFields() []string {
	var out []string
	add := func(name string, set bool) {
		if set {
			out = append(out, name)
		}
	}
	add("a", f.A != nil)
	add("b", f.B != nil)
	add("host", f.Host != nil)
	add("switch", f.Switch != nil)
	add("port", f.Port != nil)
	add("duration_us", f.DurationUs != 0)
	add("period_us", f.PeriodUs != 0)
	add("count", f.Count != 0)
	add("prob", f.Prob != 0)
	add("step_ns", f.StepNs != 0)
	add("drift_ppb", f.DriftPPB != 0)
	add("slots", f.Slots != 0)
	add("op", f.Op != nil)
	return out
}

func (f *Fault) validate() error {
	if f.AtUs < 0 {
		return fmt.Errorf("negative at_us %d", f.AtUs)
	}
	allowed, known := allowedFields[f.Kind]
	if !known {
		return fmt.Errorf("unknown kind %q", f.Kind)
	}
	for _, field := range f.presentFields() {
		if !allowed[field] {
			return fmt.Errorf("field %q is not valid for kind %q", field, f.Kind)
		}
	}
	needLink := func() error {
		hasTrunk := f.A != nil && f.B != nil
		hasHost := f.Host != nil
		if hasTrunk == hasHost {
			return fmt.Errorf("%s needs either a+b or host", f.Kind)
		}
		return nil
	}
	needSwitch := func() error {
		if f.Switch == nil {
			return fmt.Errorf("%s needs switch", f.Kind)
		}
		return nil
	}
	switch f.Kind {
	case KindLinkDown, KindLinkUp:
		return needLink()
	case KindLinkFlap:
		if err := needLink(); err != nil {
			return err
		}
		if f.PeriodUs <= 0 || f.Count <= 0 {
			return fmt.Errorf("link-flap needs positive period_us and count")
		}
	case KindLinkLoss, KindLinkCorrupt:
		if err := needLink(); err != nil {
			return err
		}
		if f.Prob <= 0 || f.Prob > 1 {
			return fmt.Errorf("%s prob %v outside (0,1]", f.Kind, f.Prob)
		}
		if f.DurationUs <= 0 {
			return fmt.Errorf("%s needs positive duration_us", f.Kind)
		}
	case KindClockStep:
		if err := needSwitch(); err != nil {
			return err
		}
		if f.StepNs == 0 {
			return fmt.Errorf("clock-step needs non-zero step_ns")
		}
	case KindClockDrift:
		return needSwitch()
	case KindGMKill:
		// No target: the current grandmaster dies.
	case KindNodeKill:
		return needSwitch()
	case KindBufferExhaust:
		if err := needSwitch(); err != nil {
			return err
		}
		if f.Port == nil || f.Slots <= 0 || f.DurationUs <= 0 {
			return fmt.Errorf("buffer-exhaust needs port, positive slots and duration_us")
		}
	case KindGateClose:
		if err := needSwitch(); err != nil {
			return err
		}
		if f.Port == nil || f.DurationUs <= 0 {
			return fmt.Errorf("gate-close needs port and positive duration_us")
		}
	case KindBufferLeak:
		if err := needSwitch(); err != nil {
			return err
		}
		if f.Port == nil || f.Slots <= 0 {
			return fmt.Errorf("buffer-leak needs port and positive slots")
		}
	case KindReconfigFail, KindReconfigTransient, KindReconfigWedge:
		if f.Op != nil && *f.Op < 0 {
			return fmt.Errorf("%s op %d negative", f.Kind, *f.Op)
		}
		// Only reconfig-transient may set count (allowedFields).
		if f.Count < 0 {
			return fmt.Errorf("%s count %d negative", f.Kind, f.Count)
		}
	default:
		return fmt.Errorf("unknown kind %q", f.Kind)
	}
	return nil
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

// Injector schedules a scenario's faults on a simulation engine.
type Injector struct {
	engine *sim.Engine
	reg    *metrics.Registry
	seed   uint64

	injected  map[string]metrics.Counter
	recovered map[string]metrics.Counter

	injectedN  uint64
	recoveredN uint64

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
		injected:  make(map[string]metrics.Counter),
		recovered: make(map[string]metrics.Counter),
	}
	if reg != nil {
		reg.Help(MetricInjected, "fault activations by kind")
		reg.Help(MetricRecovered, "fault recoveries by kind")
		reg.Help(MetricLinkDrops, "frames lost to link faults by link and reason")
		for _, k := range kinds {
			l := metrics.L("kind", k)
			inj.injected[k] = reg.Counter(MetricInjected, l)
			inj.recovered[k] = reg.Counter(MetricRecovered, l)
		}
	}
	return inj
}

// Injected returns the total number of fault activations so far.
func (inj *Injector) Injected() uint64 { return inj.injectedN }

// Recovered returns the total number of fault recoveries so far.
func (inj *Injector) Recovered() uint64 { return inj.recoveredN }

func (inj *Injector) markInjected(kind string) {
	inj.injectedN++
	inj.injected[kind].Inc()
	if inj.OnInject != nil {
		inj.OnInject(kind)
	}
}

func (inj *Injector) markRecovered(kind string) {
	inj.recoveredN++
	inj.recovered[kind].Inc()
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

// Apply validates bindings for every fault in sc and schedules them
// relative to the engine's current time. Call once, before Run.
func (inj *Injector) Apply(sc *Scenario, b Bindings) error {
	if err := sc.Validate(); err != nil {
		return err
	}
	seed := inj.seed
	if sc.Seed != 0 {
		seed = sc.Seed
	}
	base := inj.engine.Now()
	for i := range sc.Faults {
		f := &sc.Faults[i]
		at := base + sim.Time(f.AtUs)*sim.Microsecond
		if err := inj.schedule(f, at, seed, b); err != nil {
			return fmt.Errorf("faults: fault %d (%s): %w", i, f.Kind, err)
		}
	}
	return nil
}

// linkTarget resolves a fault's link selector to the two directional
// interfaces of one cable plus a stable label.
func (inj *Injector) linkTarget(f *Fault, b Bindings) (fwd, rev *netdev.Ifc, label string, err error) {
	if f.Host != nil {
		if b.HostIfc == nil {
			return nil, nil, "", fmt.Errorf("no host binding")
		}
		ifc, err := b.HostIfc(*f.Host)
		if err != nil {
			return nil, nil, "", err
		}
		if ifc.Peer() == nil {
			return nil, nil, "", fmt.Errorf("host %d interface not cabled", *f.Host)
		}
		return ifc, ifc.Peer(), fmt.Sprintf("host%d", *f.Host), nil
	}
	if b.TrunkIfc == nil {
		return nil, nil, "", fmt.Errorf("no trunk binding")
	}
	ifc, err := b.TrunkIfc(*f.A, *f.B)
	if err != nil {
		return nil, nil, "", err
	}
	return ifc, ifc.Peer(), fmt.Sprintf("sw%d-sw%d", *f.A, *f.B), nil
}

// instrumentLink binds per-reason drop counters for both directions of
// a faulted link (idempotent: the registry returns the same handles).
func (inj *Injector) instrumentLink(fwd, rev *netdev.Ifc, label string) {
	if inj.reg == nil {
		return
	}
	for _, d := range []struct {
		ifc *netdev.Ifc
		dir string
	}{{fwd, "fwd"}, {rev, "rev"}} {
		l := metrics.L("link", label+"/"+d.dir)
		d.ifc.InstrumentLink(
			inj.reg.Counter(MetricLinkDrops, l, metrics.L("reason", "link-down")),
			inj.reg.Counter(MetricLinkDrops, l, metrics.L("reason", "loss")),
			inj.reg.Counter(MetricLinkDrops, l, metrics.L("reason", "corrupt")),
		)
	}
}

func (inj *Injector) schedule(f *Fault, at sim.Time, seed uint64, b Bindings) error {
	switch f.Kind {
	case KindLinkDown, KindLinkUp, KindLinkFlap:
		fwd, rev, label, err := inj.linkTarget(f, b)
		if err != nil {
			return err
		}
		inj.instrumentLink(fwd, rev, label)
		switch f.Kind {
		case KindLinkDown:
			inj.engine.At(at, "fault:link-down:"+label, func(*sim.Engine) {
				fwd.SetLink(false)
				inj.markInjected(KindLinkDown)
			})
		case KindLinkUp:
			inj.engine.At(at, "fault:link-up:"+label, func(*sim.Engine) {
				fwd.SetLink(true)
				inj.markRecovered(KindLinkUp)
			})
		default: // flap: Count down/up cycles, half a period each state
			half := sim.Time(f.PeriodUs) * sim.Microsecond / 2
			for c := 0; c < f.Count; c++ {
				down := at + sim.Time(c)*2*half
				inj.engine.At(down, "fault:flap-down:"+label, func(*sim.Engine) {
					fwd.SetLink(false)
					inj.markInjected(KindLinkFlap)
				})
				inj.engine.At(down+half, "fault:flap-up:"+label, func(*sim.Engine) {
					fwd.SetLink(true)
					inj.markRecovered(KindLinkFlap)
				})
			}
		}

	case KindLinkLoss, KindLinkCorrupt:
		fwd, rev, label, err := inj.linkTarget(f, b)
		if err != nil {
			return err
		}
		inj.instrumentLink(fwd, rev, label)
		kind := f.Kind
		prob := f.Prob
		until := at + sim.Time(f.DurationUs)*sim.Microsecond
		// One independent deterministic stream per direction, derived
		// from the seed and the link label, so reordering faults in
		// the file cannot change per-link outcomes.
		rngF := sim.NewRand(seed ^ fnv1a(label+"/fwd/"+kind))
		rngR := sim.NewRand(seed ^ fnv1a(label+"/rev/"+kind))
		inj.engine.At(at, "fault:"+kind+":"+label, func(*sim.Engine) {
			if kind == KindLinkLoss {
				fwd.SetImpairment(prob, 0, rngF)
				rev.SetImpairment(prob, 0, rngR)
			} else {
				fwd.SetImpairment(0, prob, rngF)
				rev.SetImpairment(0, prob, rngR)
			}
			inj.markInjected(kind)
		})
		inj.engine.At(until, "recover:"+kind+":"+label, func(*sim.Engine) {
			fwd.ClearImpairment()
			rev.ClearImpairment()
			inj.markRecovered(kind)
		})

	case KindClockStep, KindClockDrift:
		sw, err := inj.bindSwitch(f, b)
		if err != nil {
			return err
		}
		kind := f.Kind
		step := sim.Time(f.StepNs) * sim.Nanosecond
		drift := clock.PPB(f.DriftPPB)
		inj.engine.At(at, fmt.Sprintf("fault:%s:sw%d", kind, sw.ID()), func(e *sim.Engine) {
			if kind == KindClockStep {
				sw.Clock.Step(e.Now(), step)
			} else {
				sw.Clock.SetDrift(e.Now(), drift)
			}
			inj.markInjected(kind)
		})

	case KindGMKill:
		if b.Domain == nil {
			return fmt.Errorf("gm-kill without a gPTP domain")
		}
		dom := b.Domain
		inj.engine.At(at, "fault:gm-kill", func(*sim.Engine) {
			if gm := dom.Grandmaster(); gm != nil {
				dom.KillNode(gm)
			}
			inj.markInjected(KindGMKill)
		})

	case KindNodeKill:
		if b.Domain == nil {
			return fmt.Errorf("node-kill without a gPTP domain")
		}
		dom := b.Domain
		var node *gptp.Node
		for _, n := range dom.Nodes() {
			if n.ID == *f.Switch {
				node = n
				break
			}
		}
		if node == nil {
			return fmt.Errorf("no gPTP node for switch %d", *f.Switch)
		}
		inj.engine.At(at, fmt.Sprintf("fault:node-kill:sw%d", *f.Switch), func(*sim.Engine) {
			dom.KillNode(node)
			inj.markInjected(KindNodeKill)
		})

	case KindBufferExhaust:
		sw, err := inj.bindSwitch(f, b)
		if err != nil {
			return err
		}
		pool := sw.Port(*f.Port).Pool()
		slots := f.Slots
		until := at + sim.Time(f.DurationUs)*sim.Microsecond
		label := fmt.Sprintf("sw%d.p%d", sw.ID(), *f.Port)
		inj.engine.At(at, "fault:buffer-exhaust:"+label, func(*sim.Engine) {
			pool.Reserve(slots)
			inj.markInjected(KindBufferExhaust)
		})
		inj.engine.At(until, "recover:buffer-exhaust:"+label, func(*sim.Engine) {
			pool.ReleaseReserved()
			inj.markRecovered(KindBufferExhaust)
		})

	case KindGateClose:
		sw, err := inj.bindSwitch(f, b)
		if err != nil {
			return err
		}
		port := *f.Port
		until := at + sim.Time(f.DurationUs)*sim.Microsecond
		label := fmt.Sprintf("sw%d.p%d", sw.ID(), port)
		cfg := sw.Config()
		// The misconfigured GCL keeps every gate open EXCEPT the TS
		// queues — the paper's CQF pair is stuck closed, so TS frames
		// drop with reason gate-closed while RC/BE continue.
		closed := gate.Mask(1<<uint(cfg.QueuesPerPort)-1) &^ (1<<uint(cfg.TSQueueA) | 1<<uint(cfg.TSQueueB))
		stuck := gate.Entry{Mask: closed, Duration: cfg.SlotSize}
		bad := gate.NewGCL([]gate.Entry{stuck, stuck})
		inj.engine.At(at, "fault:gate-close:"+label, func(*sim.Engine) {
			in, out := sw.PortSchedules(port)
			if err := sw.SetPortSchedules(port, bad, bad); err != nil {
				panic(fmt.Sprintf("faults: gate-close %s: %v", label, err))
			}
			inj.markInjected(KindGateClose)
			inj.engine.At(until, "recover:gate-close:"+label, func(*sim.Engine) {
				if err := sw.SetPortSchedules(port, in, out); err != nil {
					panic(fmt.Sprintf("faults: gate restore %s: %v", label, err))
				}
				inj.markRecovered(KindGateClose)
			})
		})

	case KindBufferLeak:
		sw, err := inj.bindSwitch(f, b)
		if err != nil {
			return err
		}
		pool := sw.Port(*f.Port).Pool()
		slots := f.Slots
		label := fmt.Sprintf("sw%d.p%d", sw.ID(), *f.Port)
		// A leak never recovers: the slots are gone until the watchdog
		// (or a human) notices the conservation violation.
		inj.engine.At(at, "fault:buffer-leak:"+label, func(*sim.Engine) {
			pool.Leak(slots)
			inj.markInjected(KindBufferLeak)
		})

	case KindReconfigFail, KindReconfigTransient, KindReconfigWedge:
		if b.Reconfig == nil {
			return fmt.Errorf("%s without a reconfiguration controller", f.Kind)
		}
		ctrl, kind := b.Reconfig, f.Kind
		opIdx := 0
		if f.Op != nil {
			opIdx = *f.Op
		}
		// count is reconfig-transient's; absent, and on the one-shot
		// kinds, Arm takes it as one attempt.
		times, wedged := f.Count, kind == KindReconfigWedge
		inj.engine.At(at, "fault:"+kind, func(*sim.Engine) {
			ctrl.Arm(opIdx, times, wedged)
			inj.markInjected(kind)
		})

	default:
		return fmt.Errorf("unknown kind %q", f.Kind)
	}
	return nil
}

func (inj *Injector) bindSwitch(f *Fault, b Bindings) (*tsnswitch.Switch, error) {
	if b.Switch == nil {
		return nil, fmt.Errorf("no switch binding")
	}
	return b.Switch(*f.Switch)
}
