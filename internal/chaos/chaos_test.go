package chaos

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// smallProfile keeps campaign tests cheap: tiny networks, short runs.
func smallProfile() Profile {
	p := DefaultProfile()
	p.MaxRuns = 6
	p.MaxSwitches = 5
	p.MinTSFlows = 2
	p.MaxTSFlows = 6
	p.MinDurMs = 10
	p.MaxDurMs = 15
	p.MaxFaults = 3
	p.RCMaxMbps = 20
	p.BEMaxMbps = 20
	p.DeterminismEvery = 3
	p.Seed = 7
	return p
}

func TestProfileValidate(t *testing.T) {
	def := DefaultProfile()
	if err := def.Validate(); err != nil {
		t.Fatal(err)
	}
	bad := []func(*Profile){
		func(p *Profile) { p.MaxRuns = 0 },
		func(p *Profile) { p.Topologies = nil },
		func(p *Profile) { p.Topologies = []string{"moebius"} },
		func(p *Profile) { p.MinSwitches = 1 },
		func(p *Profile) { p.MaxTSFlows = 0 },
		func(p *Profile) { p.MinDurMs = 1 },
		func(p *Profile) { p.WedgeProb = 1.5 },
		func(p *Profile) { p.MaxFaults = maxFaults + 1 },
		func(p *Profile) { p.MaxFaults = math.MaxInt },
	}
	for i, mutate := range bad {
		p := DefaultProfile()
		mutate(&p)
		if err := p.Validate(); err == nil {
			t.Errorf("mutation %d accepted", i)
		}
	}
}

// TestProfileValidateNamesFirstBadProbability: with two probabilities
// out of range, Validate names the one first in field order, on every
// call.
func TestProfileValidateNamesFirstBadProbability(t *testing.T) {
	names := []string{"frer_prob", "reconfig_prob", "watchdog_prob", "transient_prob", "wedge_prob"}
	at := func(p *Profile, i int) *float64 {
		return []*float64{&p.FRERProb, &p.ReconfigProb, &p.WatchdogProb, &p.TransientProb, &p.WedgeProb}[i]
	}
	for i := range names {
		for j := i + 1; j < len(names); j++ {
			p := DefaultProfile()
			*at(&p, i), *at(&p, j) = 2, -1
			want := "chaos: " + names[i] + " 2 outside [0,1]"
			for range 50 {
				if err := p.Validate(); err == nil || err.Error() != want {
					t.Fatalf("%s and %s out of range: Validate = %v, want %q", names[i], names[j], err, want)
				}
			}
		}
	}
}

func TestGenerateDeterministic(t *testing.T) {
	p := smallProfile()
	for i := 0; i < 8; i++ {
		a, err := Generate(p, i)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		b, err := Generate(p, i)
		if err != nil {
			t.Fatalf("case %d replay: %v", i, err)
		}
		if !reflect.DeepEqual(a, b) {
			t.Fatalf("case %d not deterministic:\n%+v\n%+v", i, a, b)
		}
		if err := (&faults.Scenario{Faults: a.Faults}).Validate(); err != nil {
			t.Fatalf("case %d scenario invalid: %v", i, err)
		}
	}
	// Different indices draw different scenarios.
	a, _ := Generate(p, 0)
	b, _ := Generate(p, 1)
	if reflect.DeepEqual(a.Faults, b.Faults) && a.Topology == b.Topology &&
		a.TSFlows == b.TSFlows && a.Seed == b.Seed {
		t.Fatal("cases 0 and 1 identical")
	}
}

// TestGenerateDrawOrder pins the generator's draw order: the JSON of
// the default profile's first 64 cases hashes to the digest captured
// while the generator still kept its own switch over fault kinds (and
// each case still carried a retry policy, here marshalled without it),
// so every existing caseNNNN.repro.json still regenerates.
// TestGenerateDeterministic compares the generator only with itself.
func TestGenerateDrawOrder(t *testing.T) {
	const want = "21d9e55e3b5943177c1fed0955c035f713077eb30a0e00ca41059f6c62c416dd"
	h := sha256.New()
	for i := range 64 {
		c, err := Generate(DefaultProfile(), i)
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		b, err := json.Marshal(c)
		if err != nil {
			t.Fatal(err)
		}
		h.Write(b)
	}
	if got := hex.EncodeToString(h.Sum(nil)); got != want {
		t.Fatalf("64-case digest = %s, want %s", got, want)
	}
}

// TestFitsBoundary: a fault fits a run of durMs when its window ends by
// the limit (durMs·1000 − 2000 µs) — a point fault's one-µs window and a
// 1-µs link-loss alike.
func TestFitsBoundary(t *testing.T) {
	const limit = 8000 // a 10 ms run
	a, b := 0, 1
	for _, tc := range []struct {
		f    faults.Fault
		want bool
	}{
		{faults.Fault{AtUs: limit - 1, Kind: faults.KindLinkDown, A: &a, B: &b}, true},
		{faults.Fault{AtUs: limit, Kind: faults.KindLinkDown, A: &a, B: &b}, false},
		{faults.Fault{AtUs: limit - 100, Kind: faults.KindLinkLoss, A: &a, B: &b, Prob: 0.5, DurationUs: 100}, true},
		{faults.Fault{AtUs: limit - 99, Kind: faults.KindLinkLoss, A: &a, B: &b, Prob: 0.5, DurationUs: 100}, false},
		{faults.Fault{AtUs: limit - 1, Kind: faults.KindLinkLoss, A: &a, B: &b, Prob: 0.5, DurationUs: 1}, true},
		{faults.Fault{AtUs: limit, Kind: faults.KindLinkLoss, A: &a, B: &b, Prob: 0.5, DurationUs: 1}, false},
		{faults.Fault{AtUs: limit - 300, Kind: faults.KindLinkFlap, A: &a, B: &b, PeriodUs: 100, Count: 3}, true},
		{faults.Fault{AtUs: limit - 299, Kind: faults.KindLinkFlap, A: &a, B: &b, PeriodUs: 100, Count: 3}, false},
	} {
		c := Case{Faults: []faults.Fault{tc.f}}
		if got := fits(&c, 10); got != tc.want {
			t.Errorf("%s at %dµs: fits = %v, want %v", tc.f.Kind, tc.f.AtUs, got, tc.want)
		}
	}
}

func TestExecuteCleanCase(t *testing.T) {
	res, err := Execute(Case{
		Params: workload.Params{Seed: 3, Topology: "ring", Switches: 4, TSFlows: 4, Hops: 2,
			WireSize: 64, SlotUs: 65},
		DurMs: 10,
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("clean case violated: %v", res.Violations)
	}
	if len(res.Skipped) != 0 {
		t.Fatalf("clean case skipped %v", res.Skipped)
	}
	if res.Events == 0 {
		t.Fatal("no events executed")
	}
}

func TestZeroLossOracleHoldsOnCoveredCase(t *testing.T) {
	a, b := 1, 2
	res, err := Execute(Case{
		Params: workload.Params{Seed: 5, Topology: "bidir-ring", Switches: 4, TSFlows: 4, Hops: 2,
			WireSize: 64, SlotUs: 65, FRERFlows: 4},
		DurMs: 15, FRERCovered: true,
		Faults: []faults.Fault{
			{AtUs: 3000, Kind: faults.KindLinkDown, A: &a, B: &b},
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	if res.Failed() {
		t.Fatalf("covered link-down violated: %v", res.Violations)
	}
	if want := (Violation{OracleCQFBound, "1-fault script: faults break Eq. (1)'s premises"}); len(res.Skipped) != 1 || res.Skipped[0] != want {
		t.Fatalf("faulted case skipped %v, want %v", res.Skipped, want)
	}
}

// wedgeCase builds the deliberately seeded atomicity bug — a mid-run
// reconfiguration whose commit wedges between stage and commit with
// rollback disabled — wrapped in decoy faults the shrinker must strip.
func wedgeCase(t *testing.T) Case {
	t.Helper()
	c := Case{
		Params: workload.Params{Seed: 11, Topology: "bidir-ring", Switches: 4, TSFlows: 4, Hops: 2,
			WireSize: 64, SlotUs: 65},
		DurMs: 15,
	}
	wl, err := workload.Build(c.Params)
	if err != nil {
		t.Fatal(err)
	}
	base := wl.Der.Config
	unicast, meter := 2*base.UnicastSize, 2*base.MeterSize
	c.Reconfig = &Delta{AtUs: 5000, UnicastSize: &unicast, MeterSize: &meter}
	op := 1
	sw2 := 2
	a01, b01 := 0, 1
	a12, b12 := 1, 2
	c.Faults = []faults.Fault{
		{AtUs: 1000, Kind: faults.KindReconfigWedge, Op: &op},
		// Decoys: unrelated noise the shrinker should remove.
		{AtUs: 2000, Kind: faults.KindClockDrift, Switch: &sw2, DriftPPB: 5000},
		{AtUs: 3000, Kind: faults.KindLinkLoss, A: &a01, B: &b01, Prob: 0.1, DurationUs: 2000},
		{AtUs: 6000, Kind: faults.KindLinkCorrupt, A: &a12, B: &b12, Prob: 0.1, DurationUs: 2000},
		{AtUs: 9000, Kind: faults.KindLinkDown, A: &a12, B: &b12},
	}
	return c
}

func TestWedgeCaughtByAtomicityOracle(t *testing.T) {
	res, err := Execute(wedgeCase(t))
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, v := range res.Violations {
		if v.Oracle == OracleAtomicity {
			found = true
			if !strings.Contains(v.Detail, "partial") && !strings.Contains(v.Detail, "candidate") &&
				!strings.Contains(v.Detail, "pre-transaction") {
				t.Fatalf("atomicity detail uninformative: %q", v.Detail)
			}
		}
	}
	if !found {
		t.Fatalf("wedge not caught; violations: %v", res.Violations)
	}
}

func TestShrinkWedgeToMinimalRepro(t *testing.T) {
	c := wedgeCase(t)
	res, err := Execute(c)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Failed() {
		t.Fatal("wedge case did not fail")
	}
	minimal, viols := Shrink(c, res.Violations, 64)
	if len(minimal.Faults) > 3 {
		t.Fatalf("shrunk to %d faults, want ≤ 3: %+v", len(minimal.Faults), minimal.Faults)
	}
	if !hasFaultKind(&minimal, faults.KindReconfigWedge) {
		t.Fatal("shrinker removed the causal wedge fault")
	}
	if minimal.Reconfig == nil {
		t.Fatal("shrinker removed the reconfiguration the wedge needs")
	}
	hasAtomicity := false
	for _, v := range viols {
		if v.Oracle == OracleAtomicity {
			hasAtomicity = true
		}
	}
	if !hasAtomicity {
		t.Fatalf("minimal case lost the atomicity violation: %v", viols)
	}

	// The minimal repro replays: write the artifact, load it back, and
	// re-execute the embedded case.
	dir := t.TempDir()
	path, err := WriteRepro(dir, "wedge", minimal, viols)
	if err != nil {
		t.Fatal(err)
	}
	repro, err := LoadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(repro.TsnsimArgs) == 0 {
		t.Fatal("repro has no replay argv")
	}
	replay, err := Execute(repro.Case)
	if err != nil {
		t.Fatal(err)
	}
	reproduced := false
	for _, v := range replay.Violations {
		if v.Oracle == OracleAtomicity {
			reproduced = true
		}
	}
	if !reproduced {
		t.Fatalf("loaded repro does not reproduce: %v", replay.Violations)
	}
	// The fault sidecar is valid tsnsim -faults input.
	if _, err := os.Stat(filepath.Join(dir, "wedge.faults.json")); err != nil {
		t.Fatal(err)
	}
	if _, err := faults.Load(filepath.Join(dir, "wedge.faults.json")); err != nil {
		t.Fatalf("fault sidecar does not parse: %v", err)
	}
}

// TestCampaignJudgesCleanCases: the cqf-bound oracle judges exactly
// the cases with no fault and no reconfiguration, and they hold.
func TestCampaignJudgesCleanCases(t *testing.T) {
	p, runs := DefaultProfile(), 24
	clean := 0
	for i := 0; i < runs; i++ {
		c, err := Generate(p, i)
		if err != nil {
			t.Fatal(err)
		}
		if len(c.Faults) == 0 && c.Reconfig == nil {
			clean++
		}
	}
	sum, err := RunCampaign(Options{Profile: p, Runs: runs, Parallel: 2})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Failed() || clean == 0 || sum.BoundChecks != clean {
		t.Fatalf("%d clean cases of %d, %d cqf-bound checks, failures %d, errors %v",
			clean, runs, sum.BoundChecks, len(sum.Failures), sum.Errors)
	}
}

func TestCampaignFixedSeedReproducible(t *testing.T) {
	run := func() *Summary {
		sum, err := RunCampaign(Options{Profile: smallProfile(), Parallel: 4})
		if err != nil {
			t.Fatal(err)
		}
		return sum
	}
	a, b := run(), run()
	aj, _ := json.Marshal(a)
	bj, _ := json.Marshal(b)
	if string(aj) != string(bj) {
		t.Fatalf("campaign not reproducible:\n%s\n%s", aj, bj)
	}
	if a.Executed != a.Planned {
		t.Fatalf("executed %d of %d planned", a.Executed, a.Planned)
	}
	if a.DeterminismChecks == 0 {
		t.Fatal("no determinism checks ran")
	}
	if a.ParityChecks == 0 {
		t.Fatal("no partition-parity checks ran")
	}
	if len(a.Errors) > 0 {
		t.Fatalf("campaign errors: %v", a.Errors)
	}
}

// TestPartitionParityOracleHolds runs the oracle on a case that
// carries every feature the strip must remove (faults, watchdog) and
// FRER flows, which it keeps: after stripping, the serial and
// 2-partition runs of the remaining workload must export
// byte-identical metrics.
func TestPartitionParityOracleHolds(t *testing.T) {
	a, b := 1, 2
	c := Case{
		Params: workload.Params{Seed: 9, Topology: "bidir-ring", Switches: 6, TSFlows: 8, Hops: 3,
			WireSize: 128, SlotUs: 65, RCMbps: 20, BEMbps: 20, FRERFlows: 2},
		DurMs: 15, Watchdog: true,
		Faults: []faults.Fault{
			{AtUs: 3000, Kind: faults.KindLinkDown, A: &a, B: &b},
		},
	}
	if v := CheckPartitionParity(c, 2); v != nil {
		t.Fatalf("parity oracle violated on a clean dataplane: %s", v)
	}
	// The new scale topologies run through the same oracle.
	for _, topo := range []string{"mesh", "fattree"} {
		c := Case{Params: workload.Params{Seed: 11, Topology: topo, Switches: 9, TSFlows: 12, Hops: 3,
			WireSize: 64, SlotUs: 65}, DurMs: 10}
		if v := CheckPartitionParity(c, 2); v != nil {
			t.Fatalf("%s: parity oracle violated: %s", topo, v)
		}
	}
}

func TestCampaignBudgetStopsClaiming(t *testing.T) {
	sum, err := RunCampaign(Options{
		Profile: smallProfile(), Parallel: 2,
		Budget: time.Nanosecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Executed != 0 {
		t.Fatalf("executed %d cases under an expired budget", sum.Executed)
	}
}

func TestCampaignCatchesGeneratedWedge(t *testing.T) {
	p := smallProfile()
	p.MaxRuns = 8
	p.Topologies = []string{"bidir-ring"}
	p.ReconfigProb = 1
	p.WedgeProb = 1
	p.TransientProb = 0
	p.DeterminismEvery = 0
	sum, err := RunCampaign(Options{Profile: p, Parallel: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(sum.Failures) == 0 {
		t.Fatal("campaign with wedge_prob=1 found no failures")
	}
	for _, f := range sum.Failures {
		hasAtomicity := false
		for _, v := range f.MinimalViolations {
			if v.Oracle == OracleAtomicity {
				hasAtomicity = true
			}
		}
		if !hasAtomicity {
			t.Fatalf("case %d failure lacks atomicity violation: %v",
				f.Result.Case.Index, f.MinimalViolations)
		}
		if len(f.Minimal.Faults) > 3 {
			t.Fatalf("case %d shrunk to %d faults", f.Result.Case.Index, len(f.Minimal.Faults))
		}
	}
}

// FuzzLoadProfile: LoadProfile never panics, and a profile it accepts,
// capped as FuzzBuild caps a workload (≤ 32 switches, ≤ 128 TS flows),
// generates cases 0–3 without panicking, each of whose scenario passes
// workload.Params.Validate.
func FuzzLoadProfile(f *testing.F) {
	bad, huge := DefaultProfile(), DefaultProfile()
	bad.FRERProb, bad.WedgeProb = 2, -1
	huge.MaxFaults = math.MaxInt
	for _, p := range []Profile{DefaultProfile(), smallProfile(), bad, huge} {
		body, err := json.Marshal(p)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(body)
	}
	for _, body := range []string{`{"max_runs":1}`, `{"topologies":["ring"],"max_faults":-1}`, `{"max_run":1}`, `null`, ``} {
		f.Add([]byte(body))
	}
	path := filepath.Join(f.TempDir(), "profile.json")
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		p, err := LoadProfile(path)
		if err != nil || p.MaxSwitches > 32 || p.MaxTSFlows > 128 {
			return
		}
		for i := range 4 {
			c, err := Generate(p, i)
			if err != nil {
				t.Fatalf("%s: case %d: %v", body, i, err)
			}
			if err := c.Params.Validate(); err != nil {
				t.Fatalf("%s: case %d: %v", body, i, err)
			}
		}
	})
}

// FuzzLoadRepro: LoadRepro never panics.
func FuzzLoadRepro(f *testing.F) {
	c, err := Generate(smallProfile(), 0)
	if err != nil {
		f.Fatal(err)
	}
	body, err := json.Marshal(Repro{Case: c, Violations: []Violation{{Oracle: "o", Detail: "d"}}, TsnsimArgs: c.TsnsimArgs("", "")})
	if err != nil {
		f.Fatal(err)
	}
	f.Add(body)
	for _, body := range []string{`{"case":{"faults":[{"kind":"link-down"}]}}`, `{"case":{"reconfig":{"at_us":-1}}}`, `[]`, `null`, ``} {
		f.Add([]byte(body))
	}
	path := filepath.Join(f.TempDir(), "case.repro.json")
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		LoadRepro(path)
	})
}
