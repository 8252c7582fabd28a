package faults

import (
	"encoding/json"
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"strings"
	"testing"
)

// The per-kind validator the kind table replaced, kept verbatim as the
// oracle FuzzValidateMatchesReference and TestValidateMatchesReference
// hold Validate to: same accept/reject decision, same error text. Only
// the receivers became parameters, so the names do not collide.

// referenceScenarioValidate is Scenario.Validate before the kind table.
func referenceScenarioValidate(sc *Scenario) error {
	for i := range sc.Faults {
		if err := referenceValidate(&sc.Faults[i]); err != nil {
			return fmt.Errorf("faults: fault %d: %w", i, err)
		}
	}
	for i := range sc.Faults {
		for j := 0; j < i; j++ {
			a, b := &sc.Faults[j], &sc.Faults[i]
			if a.Kind != b.Kind || a.targetKey() != b.targetKey() {
				continue
			}
			as, ae := referenceWindow(a)
			bs, be := referenceWindow(b)
			if as < be && bs < ae {
				return fmt.Errorf("faults: fault %d duplicates fault %d: %s on %s, active windows [%d,%d)µs and [%d,%d)µs overlap",
					i, j, b.Kind, b.targetKey(), as, ae, bs, be)
			}
		}
	}
	return nil
}

// referenceWindow returns the fault's active interval [start, end) in µs.
// Durational kinds span their duration, flaps span all cycles, and
// point kinds occupy a single instant — two point faults duplicate
// each other only at the exact same at_us.
func referenceWindow(f *Fault) (start, end int64) {
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

// referenceAllowedFields whitelists, per kind, the selector/parameter fields a
// fault may set. Validation rejects any other populated field with a
// descriptive error: a misplaced "prob" on a link-down fault is a
// scenario bug, not something to silently ignore.
var referenceAllowedFields = map[string]map[string]bool{
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

// referencePresentFields lists the optional fields this fault populates, by
// JSON name. Pointer fields count when non-nil, value fields when
// non-zero (their zero values are indistinguishable from absent).
func referencePresentFields(f *Fault) []string {
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

func referenceValidate(f *Fault) error {
	if f.AtUs < 0 {
		return fmt.Errorf("negative at_us %d", f.AtUs)
	}
	allowed, known := referenceAllowedFields[f.Kind]
	if !known {
		return fmt.Errorf("unknown kind %q", f.Kind)
	}
	for _, field := range referencePresentFields(f) {
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

// clockRangeErr is the one rejection Validate adds to the reference's.
const clockRangeErr = "the end of the simulated clock"

// agreeWithReference holds Validate to the reference on sc: the same
// decision and error text, except that a window ending past the
// simulated clock is rejected where the reference accepted it — and,
// in exact arithmetic, only then.
func agreeWithReference(t *testing.T, sc *Scenario) {
	t.Helper()
	got, want := sc.Validate(), referenceScenarioValidate(sc)
	fits := true
	for i := range sc.Faults {
		fits = fits && endFitsClock(&sc.Faults[i])
	}
	switch {
	case got == nil && want == nil && fits:
	case got != nil && want != nil && got.Error() == want.Error():
	case got != nil && want == nil && !fits && strings.Contains(got.Error(), clockRangeErr):
	default:
		doc, _ := json.Marshal(sc)
		t.Fatalf("Validate = %v, reference = %v, windows fit the clock = %v\nscenario: %s", got, want, fits, doc)
	}
}

// endFitsClock reports, in exact arithmetic, whether f's window ends by
// the last whole µs sim.Time holds. Only meaningful once f's fields
// validate.
func endFitsClock(f *Fault) bool {
	end := big.NewInt(max(f.DurationUs, 1))
	if f.PeriodUs != 0 {
		end.Mul(big.NewInt(f.PeriodUs), big.NewInt(int64(f.Count)))
	}
	end.Add(end, big.NewInt(f.AtUs))
	return end.Cmp(big.NewInt(math.MaxInt64/1000)) <= 0
}

// randomScenario draws one to three faults of any kind, or of none,
// with field populations biased towards each kind's own fields and
// values at the validation boundaries, on targets few enough to
// collide.
func randomScenario(rng *rand.Rand) *Scenario {
	names := []string{"", "link-sever"}
	for _, k := range kinds {
		names = append(names, k.name)
	}
	edges := []int64{-1, 0, 1, 2, 3, 100, math.MaxInt32, math.MaxInt64 / 1000, math.MaxInt64/1000 + 1,
		math.MaxInt64 / 2, 1 << 62, math.MaxInt64, math.MinInt64}
	num := func() int64 {
		if rng.Intn(3) > 0 {
			return int64(rng.Intn(4))
		}
		return edges[rng.Intn(len(edges))]
	}
	sc := &Scenario{Faults: make([]Fault, 1+rng.Intn(3))}
	for i := range sc.Faults {
		f := &sc.Faults[i]
		f.Kind = names[rng.Intn(len(names))]
		allowed := referenceAllowedFields[f.Kind]
		set := func(field string) bool {
			if allowed[field] {
				return rng.Intn(10) < 8
			}
			return rng.Intn(40) == 0
		}
		ptr := func(field string) *int {
			if !set(field) {
				return nil
			}
			v := int(num())
			return &v
		}
		val := func(field string) int64 {
			if !set(field) {
				return 0
			}
			return num()
		}
		f.AtUs = num()
		f.A, f.B, f.Host, f.Switch, f.Port = ptr("a"), ptr("b"), ptr("host"), ptr("switch"), ptr("port")
		f.DurationUs, f.PeriodUs, f.Count = val("duration_us"), val("period_us"), int(val("count"))
		if set("prob") {
			f.Prob = []float64{0.5, 1, 1.5, -0.1}[rng.Intn(4)]
		}
		f.StepNs, f.DriftPPB, f.Slots, f.Op = val("step_ns"), val("drift_ppb"), int(val("slots")), ptr("op")
	}
	return sc
}

// TestValidateMatchesReference holds Validate to the replaced
// per-kind validator over FuzzParse's corpus and 50 000 seeded random
// scenarios covering all fifteen kinds.
func TestValidateMatchesReference(t *testing.T) {
	for _, doc := range fuzzSeeds {
		var sc Scenario
		if json.Unmarshal([]byte(doc), &sc) == nil {
			agreeWithReference(t, &sc)
		}
	}
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 50_000; i++ {
		agreeWithReference(t, randomScenario(rng))
	}
}

// FuzzValidateMatchesReference: on any scenario document that decodes,
// Validate agrees with the replaced per-kind validator.
func FuzzValidateMatchesReference(f *testing.F) {
	for _, s := range fuzzSeeds {
		f.Add(s)
	}
	f.Add(`{"faults": [{"at_us": 9223372036854776, "kind": "link-down", "a": 1, "b": 2}]}`)
	f.Add(`{"faults": [{"at_us": 50, "kind": "link-loss", "a": 1, "b": 2, "prob": 0.5, "duration_us": 9223372036854775807}]}`)
	f.Add(`{"faults": [
		{"at_us": 0, "kind": "link-flap", "a": 0, "b": 1, "period_us": 4611686018427387904, "count": 4},
		{"at_us": 10, "kind": "link-flap", "a": 0, "b": 1, "period_us": 4611686018427387904, "count": 4}]}`)
	f.Fuzz(func(t *testing.T, doc string) {
		var sc Scenario
		dec := json.NewDecoder(strings.NewReader(doc))
		dec.DisallowUnknownFields()
		if dec.Decode(&sc) == nil {
			agreeWithReference(t, &sc)
		}
	})
}
