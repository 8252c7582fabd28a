package chaos

import (
	"encoding/json"
	"fmt"
	"os"
	"slices"

	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// Profile bounds the scenario generator: which topologies and scales
// to draw from, how hostile the fault scripts get, and how often the
// expensive cross-checks (replay determinism) run. A profile plus a
// seed is a complete, reproducible campaign definition.
type Profile struct {
	// MaxRuns caps the campaign when no explicit run count is given.
	MaxRuns int `json:"max_runs"`
	// Topologies to draw from (a subset of topology.Names).
	Topologies []string `json:"topologies"`
	// MinSwitches/MaxSwitches bound the node count (each shape's
	// topology floor still applies, and a generated tree has 5).
	MinSwitches int `json:"min_switches"`
	MaxSwitches int `json:"max_switches"`
	// MinTSFlows/MaxTSFlows bound the TS flow count.
	MinTSFlows int `json:"min_ts_flows"`
	MaxTSFlows int `json:"max_ts_flows"`
	// MaxHops caps each TS flow's path length.
	MaxHops int `json:"max_hops"`
	// MinDurMs/MaxDurMs bound the measurement window.
	MinDurMs int `json:"min_dur_ms"`
	MaxDurMs int `json:"max_dur_ms"`
	// MaxFaults caps the fault script length.
	MaxFaults int `json:"max_faults"`
	// RCMaxMbps/BEMaxMbps cap the background injector rates (0 allows
	// none of that class).
	RCMaxMbps int `json:"rc_max_mbps"`
	BEMaxMbps int `json:"be_max_mbps"`
	// FRERProb is the chance a bidir-ring case runs with FRER; half of
	// those are generated FRER-covered (zero-loss oracle armed).
	FRERProb float64 `json:"frer_prob"`
	// ReconfigProb is the chance a case carries a mid-run
	// reconfiguration delta.
	ReconfigProb float64 `json:"reconfig_prob"`
	// WatchdogProb is the chance a case runs the invariant watchdog.
	WatchdogProb float64 `json:"watchdog_prob"`
	// TransientProb is the chance a reconfiguring case also injects a
	// transient mid-commit staging failure of 1 to reconfig.Retries
	// attempts, which the commit's retries must absorb.
	TransientProb float64 `json:"transient_prob"`
	// WedgeProb is the chance a reconfiguring case injects the wedged
	// mid-commit failure — the deliberately seeded atomicity bug. Keep
	// it zero outside oracle self-tests.
	WedgeProb float64 `json:"wedge_prob"`
	// DeterminismEvery runs the same-seed replay cross-check on every
	// n-th case (0 disables).
	DeterminismEvery int `json:"determinism_every"`
	// ParityEvery runs the partition-parity cross-check (serial vs
	// 2-partition export digests, faults/reconfig/watchdog stripped) on
	// every n-th case (0 disables).
	ParityEvery int `json:"parity_every"`
	// Seed is the campaign master seed.
	Seed uint64 `json:"seed"`
}

// DefaultProfile is the stock campaign: every topology, modest scales
// (cases must stay cheap enough to run hundreds under a CI budget),
// full fault menu, reconfig plus transient staging failures, replay
// and partition-parity cross-checks every 8th case.
func DefaultProfile() Profile {
	return Profile{
		MaxRuns:          256,
		Topologies:       slices.Clone(topology.Names),
		MinSwitches:      3,
		MaxSwitches:      8,
		MinTSFlows:       4,
		MaxTSFlows:       48,
		MaxHops:          4,
		MinDurMs:         20,
		MaxDurMs:         60,
		MaxFaults:        6,
		RCMaxMbps:        100,
		BEMaxMbps:        100,
		FRERProb:         0.6,
		ReconfigProb:     0.4,
		WatchdogProb:     0.5,
		TransientProb:    0.5,
		WedgeProb:        0,
		DeterminismEvery: 8,
		ParityEvery:      8,
		Seed:             1,
	}
}

// maxFaults bounds a profile's max_faults: Generate re-validates the
// script per drawn fault, so its cost grows faster than the square of
// the budget.
const maxFaults = 64

// Validate rejects profiles the generator cannot draw from.
func (p *Profile) Validate() error {
	if p.MaxRuns < 1 {
		return fmt.Errorf("chaos: max_runs %d < 1", p.MaxRuns)
	}
	if len(p.Topologies) == 0 {
		return fmt.Errorf("chaos: no topologies")
	}
	for _, t := range p.Topologies {
		if _, err := topology.Parse(t); err != nil {
			return fmt.Errorf("chaos: %w", err)
		}
	}
	if p.MinSwitches < 2 || p.MaxSwitches < p.MinSwitches {
		return fmt.Errorf("chaos: switch range [%d,%d] invalid", p.MinSwitches, p.MaxSwitches)
	}
	if p.MinTSFlows < 1 || p.MaxTSFlows < p.MinTSFlows {
		return fmt.Errorf("chaos: ts-flow range [%d,%d] invalid", p.MinTSFlows, p.MaxTSFlows)
	}
	if p.MaxHops < 2 {
		return fmt.Errorf("chaos: max_hops %d < 2", p.MaxHops)
	}
	if p.MinDurMs < 5 || p.MaxDurMs < p.MinDurMs {
		return fmt.Errorf("chaos: duration range [%d,%d]ms invalid (min 5ms)", p.MinDurMs, p.MaxDurMs)
	}
	if p.MaxFaults < 0 {
		return fmt.Errorf("chaos: max_faults %d negative", p.MaxFaults)
	}
	if p.MaxFaults > maxFaults {
		return fmt.Errorf("chaos: max_faults %d > %d", p.MaxFaults, maxFaults)
	}
	probs := [...]string{"frer_prob", "reconfig_prob", "watchdog_prob", "transient_prob", "wedge_prob"}
	for i, pr := range [...]float64{p.FRERProb, p.ReconfigProb, p.WatchdogProb, p.TransientProb, p.WedgeProb} {
		if pr < 0 || pr > 1 {
			return fmt.Errorf("chaos: %s %v outside [0,1]", probs[i], pr)
		}
	}
	if p.DeterminismEvery < 0 {
		return fmt.Errorf("chaos: determinism_every %d negative", p.DeterminismEvery)
	}
	if p.ParityEvery < 0 {
		return fmt.Errorf("chaos: parity_every %d negative", p.ParityEvery)
	}
	return nil
}

// LoadProfile parses a profile file strictly: unknown fields are
// rejected so a typo'd knob cannot silently fall back to a default.
func LoadProfile(path string) (Profile, error) {
	var p Profile
	if err := loadStrict(path, "chaos profile", &p); err != nil {
		return Profile{}, err
	}
	if err := p.Validate(); err != nil {
		return Profile{}, fmt.Errorf("chaos profile %s: %w", path, err)
	}
	return p, nil
}

// loadStrict decodes the JSON file at path into v, rejecting unknown
// fields; what names the file kind in errors.
func loadStrict(path, what string, v any) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	dec := json.NewDecoder(f)
	dec.DisallowUnknownFields()
	if err := dec.Decode(v); err != nil {
		return fmt.Errorf("%s %s: %w", what, path, err)
	}
	return nil
}
