package main

import (
	"io"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// runArgs runs tsntas on args.
func runArgs(args ...string) error {
	return run(parseFlags(args), io.Discard)
}

// summary runs tsntas on args and returns its last output line.
func summary(t *testing.T, args ...string) string {
	t.Helper()
	var b strings.Builder
	if err := run(parseFlags(args), &b); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(b.String()), "\n")
	return lines[len(lines)-1]
}

func TestRunGenerated(t *testing.T) {
	if err := runArgs("-flows", "32"); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerbose(t *testing.T) {
	if err := runArgs("-flows", "8", "-hops", "2", "-size", "128", "-guard", "4", "-v"); err != nil {
		t.Fatal(err)
	}
}

func TestRunSpecFile(t *testing.T) {
	doc := `{"topology":"linear","switches":4,"hosts":{"a":0,"b":3},
		"flows":[{"class":"TS","count":8,"src":"a","dst":"b","period_us":10000}]}`
	path := filepath.Join(t.TempDir(), "s.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runArgs("-spec", path); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingSpec(t *testing.T) {
	if err := runArgs("-spec", "/nonexistent.json"); err == nil {
		t.Fatal("missing spec accepted")
	}
}

func TestRunInfeasible(t *testing.T) {
	// 4000 full-size flows in the fixed 10 ms period cannot be scheduled.
	err := runArgs("-flows", "4000", "-size", "1500")
	if err == nil || !strings.Contains(err.Error(), "no feasible window placement") {
		t.Fatalf("err = %v, want no feasible window placement", err)
	}
}

// TestRunBadInputs: every out-of-range flag value is an error naming
// what is wrong, never a panic and never a schedule for frames the flow
// model rejects.
func TestRunBadInputs(t *testing.T) {
	for _, tc := range []struct {
		name, want string
		args       []string
	}{
		{"zero flows", "ts_flows 0", []string{"-flows", "0"}},
		{"zero size", "wire_size 0", []string{"-size", "0"}},
		{"oversize", "wire_size 20000", []string{"-size", "20000"}},
		{"negative guard", "negative guard", []string{"-flows", "8", "-guard", "-5"}},
		{"slot", "no CQF slot", []string{"-slot", "65"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			err := runArgs(tc.args...)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}

// TestFrontEndsAgree: tsntas parses the shared scenario flags into the
// Params tsnbuild and tsnsim parse them into (each command's test of
// this name checks the same value), and refuses hops beyond the
// network.
func TestFrontEndsAgree(t *testing.T) {
	args := []string{"-topology", "ring", "-switches", "6", "-flows", "1024", "-hops", "3"}
	want := workload.Params{Topology: "ring", Switches: 6, TSFlows: 1024, Hops: 3, WireSize: 64, SlotUs: 65, Seed: 42}
	if got := parseFlags(args).Params; got != want {
		t.Fatalf("tsntas %v parses into %+v, want %+v", args, got, want)
	}
	if err := runArgs("-hops", "7"); err == nil || !strings.Contains(err.Error(), "hops 7") {
		t.Fatalf("-hops 7: err = %v, want one naming hops 7", err)
	}
	// -seed draws the deadlines, so it reaches the tightest slack.
	if a, b := summary(t), summary(t, "-seed", "7"); a == b || !strings.Contains(a, "tightest deadline slack") {
		t.Fatalf("-seed 7 summary %q, default %q", b, a)
	}
}
