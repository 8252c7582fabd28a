package main

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/chaos"
)

// chaosOpts is the -chaos flag family: the campaign options
// -chaos-runs, -chaos-budget and -chaos-parallel bind into, the profile
// to load into them and the directory for failing cases' repros.
type chaosOpts struct {
	chaos.Options
	profile string // profile JSON path, or "default"
	out     string
}

// runChaos executes a chaos campaign and writes a minimal-repro
// artifact set for every failing case into o.out. It returns whether
// any invariant oracle rejected a case (the caller exits 1 on true)
// and any infrastructure error.
func runChaos(o chaosOpts) (bool, error) {
	o.Profile = chaos.DefaultProfile()
	if o.profile != "default" {
		var err error
		if o.Profile, err = chaos.LoadProfile(o.profile); err != nil {
			return true, err
		}
	}
	o.Log = func(format string, args ...any) { fmt.Printf("chaos: "+format+"\n", args...) }
	sum, err := chaos.RunCampaign(o.Options)
	if err != nil {
		return true, err
	}
	fmt.Printf("chaos: executed %d/%d cases, %d cqf-bound checks, %d determinism checks, %d parity checks, %d failures, %d errors\n",
		sum.Executed, sum.Planned, sum.BoundChecks, sum.DeterminismChecks, sum.ParityChecks, len(sum.Failures), len(sum.Errors))
	for _, e := range sum.Errors {
		fmt.Printf("chaos: ERROR %s\n", e)
	}
	for _, f := range sum.Failures {
		name := fmt.Sprintf("case%04d", f.Result.Case.Index)
		path, werr := chaos.WriteRepro(o.out, name, f.Minimal, f.MinimalViolations)
		if werr != nil {
			return true, fmt.Errorf("writing repro for case %d: %w", f.Result.Case.Index, werr)
		}
		fmt.Printf("chaos: case %d FAILED (%d violations), minimal repro (%d faults) at %s\n",
			f.Result.Case.Index, len(f.MinimalViolations), len(f.Minimal.Faults), path)
		for _, v := range f.MinimalViolations {
			fmt.Printf("chaos:   %s\n", v)
		}
	}
	if !sum.Failed() {
		fmt.Println("chaos: all invariants held")
	}
	return sum.Failed(), nil
}

// runChaosReplay re-executes a minimal-repro artifact written by a
// previous campaign. It returns whether the recorded violations still
// reproduce (the caller exits 1 on true, matching the campaign's exit
// semantics: non-zero means an invariant is violated).
func runChaosReplay(path string) (bool, error) {
	repro, err := chaos.LoadRepro(path)
	if err != nil {
		return true, err
	}
	fmt.Printf("chaos: replaying %s (case %d, seed %d, %d faults)\n",
		path, repro.Case.Index, repro.Case.Seed, len(repro.Case.Faults))
	res, err := chaos.Execute(repro.Case)
	if err != nil {
		return true, err
	}
	if len(res.Violations) == 0 {
		fmt.Println("chaos: repro did NOT reproduce — all invariants held")
		return false, nil
	}
	for _, v := range res.Violations {
		fmt.Printf("chaos: reproduced %s\n", v)
	}
	return true, nil
}
