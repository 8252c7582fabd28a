package faults

import (
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/clock"
	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/netdev"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

// sink collects delivered frames.
type sink struct{ frames []*ethernet.Frame }

func (s *sink) Receive(f *ethernet.Frame, on *netdev.Ifc) { s.frames = append(s.frames, f) }

func TestParseValid(t *testing.T) {
	sc, err := Parse(strings.NewReader(`{
		"seed": 7,
		"faults": [
			{"at_us": 100, "kind": "link-down", "a": 1, "b": 2},
			{"at_us": 900, "kind": "link-up", "a": 1, "b": 2},
			{"at_us": 10, "kind": "link-flap", "host": 3, "period_us": 50, "count": 4},
			{"at_us": 0, "kind": "link-loss", "a": 0, "b": 1, "prob": 0.1, "duration_us": 500},
			{"at_us": 0, "kind": "link-corrupt", "a": 0, "b": 1, "prob": 0.01, "duration_us": 500},
			{"at_us": 5, "kind": "clock-step", "switch": 2, "step_ns": 500},
			{"at_us": 5, "kind": "clock-drift", "switch": 2, "drift_ppb": 90000},
			{"at_us": 50, "kind": "gm-kill"},
			{"at_us": 50, "kind": "node-kill", "switch": 1},
			{"at_us": 20, "kind": "buffer-exhaust", "switch": 0, "port": 1, "slots": 90, "duration_us": 200},
			{"at_us": 20, "kind": "gate-close", "switch": 0, "port": 0, "duration_us": 130}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if sc.Seed != 7 || len(sc.Faults) != 11 {
		t.Fatalf("parsed %d faults seed %d", len(sc.Faults), sc.Seed)
	}
}

func TestParseRejects(t *testing.T) {
	cases := []string{
		`{"faults": [{"at_us": 0, "kind": "nonsense"}]}`,
		`{"faults": [{"at_us": -1, "kind": "gm-kill"}]}`,
		`{"faults": [{"at_us": 0, "kind": "link-down"}]}`,                             // no target
		`{"faults": [{"at_us": 0, "kind": "link-down", "a": 1, "b": 2, "host": 3}]}`,  // both targets
		`{"faults": [{"at_us": 0, "kind": "link-flap", "a": 1, "b": 2, "count": 3}]}`, // no period
		`{"faults": [{"at_us": 0, "kind": "link-loss", "a": 1, "b": 2, "prob": 1.5, "duration_us": 1}]}`,
		`{"faults": [{"at_us": 0, "kind": "link-loss", "a": 1, "b": 2, "prob": 0.5}]}`, // no duration
		`{"faults": [{"at_us": 0, "kind": "clock-step", "switch": 1}]}`,                // zero step
		`{"faults": [{"at_us": 0, "kind": "clock-drift"}]}`,                            // no switch
		`{"faults": [{"at_us": 0, "kind": "buffer-exhaust", "switch": 0, "port": 1, "slots": 0, "duration_us": 5}]}`,
		`{"faults": [{"at_us": 0, "kind": "gate-close", "switch": 0, "duration_us": 5}]}`, // no port
		`{"faults": [{"at_us": 0, "kind": "gm-kill", "bogus_field": 1}]}`,                 // unknown field
	}
	for _, c := range cases {
		if _, err := Parse(strings.NewReader(c)); err == nil {
			t.Errorf("accepted invalid scenario %s", c)
		}
	}
}

// linkPair builds one cable between two sinks.
func linkPair(e *sim.Engine) (*netdev.Ifc, *sink, *sink) {
	sa, sb := &sink{}, &sink{}
	a := netdev.NewIfc(e, "a", sa, ethernet.Gbps)
	b := netdev.NewIfc(e, "b", sb, ethernet.Gbps)
	netdev.Connect(a, b, 0)
	return a, sa, sb
}

func trunkBinding(ifc *netdev.Ifc) Bindings {
	return Bindings{
		TrunkIfc: func(a, b int) (*netdev.Ifc, error) { return ifc, nil },
	}
}

func TestLinkDownUpFault(t *testing.T) {
	e := sim.NewEngine()
	reg := metrics.New()
	ifc, _, sb := linkPair(e)
	inj := NewInjector(e, 1, reg)
	sc, err := Parse(strings.NewReader(`{"faults": [
		{"at_us": 10, "kind": "link-down", "a": 0, "b": 1},
		{"at_us": 30, "kind": "link-up", "a": 0, "b": 1}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Apply(sc, trunkBinding(ifc)); err != nil {
		t.Fatal(err)
	}
	// One frame during the outage (lost), one after recovery.
	e.At(15*sim.Microsecond, "tx1", func(*sim.Engine) { ifc.Transmit(&ethernet.Frame{Seq: 1}, nil) })
	e.At(40*sim.Microsecond, "tx2", func(*sim.Engine) { ifc.Transmit(&ethernet.Frame{Seq: 2}, nil) })
	e.Run()
	if len(sb.frames) != 1 || sb.frames[0].Seq != 2 {
		t.Fatalf("delivered %v, want only seq 2", sb.frames)
	}
	if inj.Injected() != 1 || inj.Recovered() != 1 {
		t.Fatalf("counts = %d/%d, want 1/1", inj.Injected(), inj.Recovered())
	}
	if v := reg.CounterValue(MetricInjected, metrics.L("kind", KindLinkDown)); v != 1 {
		t.Fatalf("injected counter = %d", v)
	}
	if v := reg.SumCounter(MetricLinkDrops, metrics.L("reason", "link-down")); v != 1 {
		t.Fatalf("link drop counter = %d", v)
	}
}

func TestLinkFlapFault(t *testing.T) {
	e := sim.NewEngine()
	ifc, _, sb := linkPair(e)
	inj := NewInjector(e, 1, nil) // nil registry: counters are no-ops
	sc, _ := Parse(strings.NewReader(`{"faults": [
		{"at_us": 0, "kind": "link-flap", "a": 0, "b": 1, "period_us": 20, "count": 3}
	]}`))
	if err := inj.Apply(sc, trunkBinding(ifc)); err != nil {
		t.Fatal(err)
	}
	e.Run()
	if inj.Injected() != 3 || inj.Recovered() != 3 {
		t.Fatalf("flap counts = %d/%d, want 3/3", inj.Injected(), inj.Recovered())
	}
	// The link is up after the final flap cycle: a frame crosses it.
	e.After(0, "probe", func(*sim.Engine) { ifc.Transmit(&ethernet.Frame{}, nil) })
	e.Run()
	if len(sb.frames) != 1 {
		t.Fatal("link not up after final flap cycle")
	}
}

// TestLinkFlapBooksOneCycleAtATime: Apply books a flap's first
// activation only, and each activation its recovery and the next cycle,
// so a flap of 2^20 cycles leaves at most two events pending. A cycle
// still runs before an event booked after Apply for the same instant:
// its order number was reserved at Apply.
func TestLinkFlapBooksOneCycleAtATime(t *testing.T) {
	e := sim.NewEngine()
	ifc, _, sb := linkPair(e)
	inj := NewInjector(e, 1, nil)
	sc, err := Parse(strings.NewReader(`{"faults": [
		{"at_us": 0, "kind": "link-flap", "a": 0, "b": 1, "period_us": 20, "count": 1048576}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	if err := inj.Apply(sc, trunkBinding(ifc)); err != nil {
		t.Fatal(err)
	}
	if p := e.Pending(); p > 2 {
		t.Fatalf("%d events pending after Apply, want at most 2", p)
	}
	var seen uint64
	e.At(40*sim.Microsecond, "probe", func(*sim.Engine) { seen = inj.Injected() })
	// Cycle 3 takes the link down at 60µs and up at 70µs: a frame sent
	// at 62µs is lost, one sent at 75µs crosses.
	e.At(62*sim.Microsecond, "tx1", func(*sim.Engine) { ifc.Transmit(&ethernet.Frame{Seq: 1}, nil) })
	e.At(75*sim.Microsecond, "tx2", func(*sim.Engine) { ifc.Transmit(&ethernet.Frame{Seq: 2}, nil) })
	e.RunUntil(78 * sim.Microsecond)
	if seen != 3 {
		t.Fatalf("probe at cycle 2's instant saw %d activations, want 3", seen)
	}
	if inj.Injected() != 4 || inj.Recovered() != 4 {
		t.Fatalf("flap counts = %d/%d, want 4/4", inj.Injected(), inj.Recovered())
	}
	if len(sb.frames) != 1 || sb.frames[0].Seq != 2 {
		t.Fatalf("delivered %v, want only seq 2", sb.frames)
	}
	if p := e.Pending(); p > 2 {
		t.Fatalf("%d events pending after four cycles, want at most 2", p)
	}
}

func TestLinkLossDeterministic(t *testing.T) {
	run := func() (delivered int) {
		e := sim.NewEngine()
		ifc, _, sb := linkPair(e)
		inj := NewInjector(e, 42, nil)
		sc, _ := Parse(strings.NewReader(`{"faults": [
			{"at_us": 0, "kind": "link-loss", "a": 0, "b": 1, "prob": 0.5, "duration_us": 1000}
		]}`))
		if err := inj.Apply(sc, trunkBinding(ifc)); err != nil {
			t.Fatal(err)
		}
		next := sim.Time(0)
		for i := 0; i < 100; i++ {
			seq := uint32(i)
			e.At(next, "tx", func(*sim.Engine) { ifc.Transmit(&ethernet.Frame{Seq: seq}, nil) })
			next += sim.Microsecond
		}
		e.Run()
		return len(sb.frames)
	}
	first := run()
	if first == 0 || first == 100 {
		t.Fatalf("loss 0.5 delivered %d of 100", first)
	}
	if again := run(); again != first {
		t.Fatalf("same seed delivered %d then %d frames", first, again)
	}
}

func TestClockFaults(t *testing.T) {
	// Clock faults resolve through the Switch binding, exercised by
	// the testbed integration tests; here verify the two primitive
	// operations they compose (phase step + frequency step).
	c := clock.New(0, 0)
	c.Step(sim.Second, 500*sim.Nanosecond)
	c.SetDrift(sim.Second, 90_000)
	want := 2*sim.Second + 500*sim.Nanosecond + 90*sim.Microsecond
	if got := c.Now(2 * sim.Second); got != want {
		t.Fatalf("clock fault arithmetic: %v, want %v", got, want)
	}
}

func TestApplyBindingErrors(t *testing.T) {
	e := sim.NewEngine()
	inj := NewInjector(e, 1, nil)
	sc, _ := Parse(strings.NewReader(`{"faults": [{"at_us": 0, "kind": "link-down", "a": 0, "b": 1}]}`))
	if err := inj.Apply(sc, Bindings{}); err == nil {
		t.Fatal("missing trunk binding accepted")
	}
	sc, _ = Parse(strings.NewReader(`{"faults": [{"at_us": 0, "kind": "gm-kill"}]}`))
	if err := inj.Apply(sc, Bindings{}); err == nil {
		t.Fatal("gm-kill without domain accepted")
	}
	sc, _ = Parse(strings.NewReader(`{"faults": [{"at_us": 0, "kind": "clock-drift", "switch": 0}]}`))
	if err := inj.Apply(sc, Bindings{}); err == nil {
		t.Fatal("clock fault without switch binding accepted")
	}
}

// TestApplyRejectsOutOfRange: a port the switch lacks, or a window that
// ends past the simulated clock once the engine's current time is
// added, is a scenario error from Apply, not a panic at Apply or at
// activation.
func TestApplyRejectsOutOfRange(t *testing.T) {
	cfg := core.Config{
		UnicastSize: 8, MulticastSize: 8, ClassSize: 8, MeterSize: 8, GateSize: 2,
		QueueNum: 8, PortNum: 4, CBSMapSize: 3, CBSSize: 3, QueueDepth: 8, BufferNum: 16,
		SlotSize: 65 * sim.Microsecond, LinkRate: ethernet.Gbps,
	}
	for _, tc := range []struct{ fault, want string }{
		{`{"at_us": 5, "kind": "buffer-exhaust", "switch": 1, "port": 99, "slots": 2, "duration_us": 10}`, "switch 1 has no port 99"},
		{`{"at_us": 5, "kind": "buffer-exhaust", "switch": 1, "port": -1, "slots": 2, "duration_us": 10}`, "switch 1 has no port -1"},
		{`{"at_us": 5, "kind": "buffer-leak", "switch": 1, "port": 99, "slots": 2}`, "switch 1 has no port 99"},
		{`{"at_us": 5, "kind": "buffer-leak", "switch": 1, "port": -1, "slots": 2}`, "switch 1 has no port -1"},
		{`{"at_us": 5, "kind": "gate-close", "switch": 1, "port": 99, "duration_us": 10}`, "switch 1 has no port 99"},
		{`{"at_us": 5, "kind": "gate-close", "switch": 1, "port": -1, "duration_us": 10}`, "switch 1 has no port -1"},
		// Valid from time zero, but the engine is already 1 s in.
		{`{"at_us": 9223372036854000, "kind": "buffer-leak", "switch": 1, "port": 0, "slots": 2}`,
			"active window ends past 9223372035854775µs, the end of the simulated clock"},
	} {
		e := sim.NewEngine()
		e.RunUntil(sim.Second)
		sw := oneSwitch(e, cfg)
		sc, err := Parse(strings.NewReader(`{"faults": [` + tc.fault + `]}`))
		if err != nil {
			t.Fatal(err)
		}
		b := Bindings{Switch: func(int) (*tsnswitch.Switch, error) { return sw, nil }}
		if err := NewInjector(e, 1, nil).Apply(sc, b); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want %q", tc.fault, err, tc.want)
		}
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/faults.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}
