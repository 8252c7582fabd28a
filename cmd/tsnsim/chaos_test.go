package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/chaos"
)

// wedgeProfile writes a small campaign profile guaranteed to seed the
// mid-commit wedge bug (reconfig_prob=1, wedge_prob=1) and returns its
// path — the CLI loads it the way a user's -chaos <file> would.
func wedgeProfile(t *testing.T, dir string) string {
	t.Helper()
	p := chaos.DefaultProfile()
	p.MaxRuns = 6
	p.Topologies = []string{"bidir-ring"}
	p.MaxSwitches = 5
	p.MinTSFlows = 2
	p.MaxTSFlows = 6
	p.MinDurMs = 10
	p.MaxDurMs = 15
	p.MaxFaults = 3
	p.RCMaxMbps = 20
	p.BEMaxMbps = 20
	p.ReconfigProb = 1
	p.WedgeProb = 1
	p.TransientProb = 0
	p.DeterminismEvery = 0
	p.Seed = 7
	data, err := json.Marshal(p)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "wedge-profile.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestChaosCampaignCLI drives the whole -chaos surface: a wedge-heavy
// profile must produce failures, write minimal-repro artifacts, and
// -chaos-replay of an artifact must still reproduce the violation.
func TestChaosCampaignCLI(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "repros")
	failed, err := runChaos(chaosOpts{
		profile: wedgeProfile(t, dir),
		Options: chaos.Options{Parallel: 4},
		out:     out,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("wedge-heavy campaign reported no failures")
	}
	repros, err := filepath.Glob(filepath.Join(out, "*.repro.json"))
	if err != nil || len(repros) == 0 {
		t.Fatalf("no repro artifacts written to %s (err %v)", out, err)
	}
	reproduced, err := runChaosReplay(repros[0])
	if err != nil {
		t.Fatal(err)
	}
	if !reproduced {
		t.Fatalf("replay of %s did not reproduce", repros[0])
	}
}

// TestChaosReplayBudgetZeroExit checks the passing side of the exit
// contract: a campaign whose oracles all hold reports failed=false.
func TestChaosCleanCampaignPasses(t *testing.T) {
	dir := t.TempDir()
	p := chaos.DefaultProfile()
	p.MaxRuns = 4
	p.Topologies = []string{"ring", "linear"}
	p.MaxSwitches = 5
	p.MinTSFlows = 2
	p.MaxTSFlows = 6
	p.MinDurMs = 10
	p.MaxDurMs = 15
	p.MaxFaults = 2
	p.RCMaxMbps = 0
	p.BEMaxMbps = 0
	p.ReconfigProb = 0
	p.DeterminismEvery = 2
	p.Seed = 3
	data, _ := json.Marshal(p)
	path := filepath.Join(dir, "clean.json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	failed, err := runChaos(chaosOpts{profile: path, Options: chaos.Options{Parallel: 2}, out: dir})
	if err != nil {
		t.Fatal(err)
	}
	if failed {
		t.Fatal("clean campaign reported failures")
	}
}

// TestChaosReproReplaysThroughPlainTsnsim holds the byte-for-byte
// replay claim: each repro's recorded tsnsim argv, run verbatim from
// the artifact's directory, exports the same metrics JSON as
// chaos.Execute of the recorded case.
func TestChaosReproReplaysThroughPlainTsnsim(t *testing.T) {
	dir := t.TempDir()
	failed, err := runChaos(chaosOpts{
		profile: wedgeProfile(t, dir),
		Options: chaos.Options{Parallel: 4},
		out:     dir,
	})
	if err != nil {
		t.Fatal(err)
	}
	if !failed {
		t.Fatal("campaign found nothing to replay")
	}
	repros, _ := filepath.Glob(filepath.Join(dir, "*.repro.json"))
	if len(repros) == 0 {
		t.Fatal("no repro artifacts written")
	}
	wd, err := os.Getwd()
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Chdir(dir); err != nil {
		t.Fatal(err)
	}
	defer os.Chdir(wd)
	for _, path := range repros {
		repro, err := chaos.LoadRepro(path)
		if err != nil {
			t.Fatal(err)
		}
		want, err := chaos.Execute(repro.Case)
		if err != nil {
			t.Fatal(err)
		}
		out := strings.TrimSuffix(filepath.Base(path), ".repro.json") + ".metrics.json"
		o, err := parseFlags(append(repro.TsnsimArgs, "-metrics-json", "-metrics", out))
		if err != nil {
			t.Fatalf("%s: tsnsim rejected the recorded argv: %v", path, err)
		}
		if err := runWithOutputs(*o); err != nil {
			t.Fatalf("%s: replay: %v", path, err)
		}
		got, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want.MetricsJSON) {
			t.Errorf("%s: tsnsim metrics (%d bytes) differ from chaos.Execute (%d bytes)",
				path, len(got), len(want.MetricsJSON))
		}
	}
}

// TestChaosCaseRoundTripsThroughFlags checks that TsnsimArgs, the one
// hand-written Case→tsnsim mapping, is the flag parser's inverse: the
// argv and sidecar files of a generated case parse back into that case.
func TestChaosCaseRoundTripsThroughFlags(t *testing.T) {
	dir := t.TempDir()
	p := chaos.DefaultProfile()
	for i := 0; i < 50; i++ {
		c, err := chaos.Generate(p, i)
		if err != nil {
			t.Fatal(err)
		}
		name := fmt.Sprintf("case%04d", i)
		if _, err := chaos.WriteRepro(dir, name, c, nil); err != nil {
			t.Fatal(err)
		}
		sidecar := func(suffix string) string {
			path := filepath.Join(dir, name+suffix)
			if _, err := os.Stat(path); err != nil {
				return ""
			}
			return path
		}
		o, err := parseFlags(c.TsnsimArgs(sidecar(".faults.json"), sidecar(".reconfig.json")))
		if err != nil {
			t.Fatalf("case %d: %v", i, err)
		}
		// The argv does not carry the campaign's bookkeeping.
		c.Index, c.FRERCovered = 0, false
		if !reflect.DeepEqual(o.Case, c) {
			t.Errorf("case %d does not round-trip:\n flags %+v\n case  %+v", i, o.Case, c)
		}
	}
}
