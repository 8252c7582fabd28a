package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestRunGenerated(t *testing.T) {
	if err := run("", 32, 3, 10, 64, 2, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunVerbose(t *testing.T) {
	if err := run("", 8, 2, 5, 128, 4, true); err != nil {
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
	if err := run(path, 0, 0, 0, 0, 2, false); err != nil {
		t.Fatal(err)
	}
}

func TestRunMissingSpec(t *testing.T) {
	if err := run("/nonexistent.json", 0, 0, 0, 0, 2, false); err == nil {
		t.Fatal("missing spec accepted")
	}
}

func TestRunInfeasible(t *testing.T) {
	// 4000 large flows in a 1 ms period cannot be scheduled.
	if err := run("", 4000, 3, 1, 1500, 2, false); err == nil {
		t.Fatal("infeasible workload accepted")
	}
}

// TestRunBadInputs: every out-of-range flag value is an error naming
// what is wrong, never a panic and never a schedule for frames the flow
// model rejects.
func TestRunBadInputs(t *testing.T) {
	for _, tc := range []struct {
		name, want                            string
		flowN, hops, periodMs, sizeB, guardUs int
	}{
		{"zero flows", "-flows", 0, 3, 10, 64, 2},
		{"zero period", "-period", 8, 3, 0, 64, 2},
		{"negative period", "-period", 8, 3, -1, 64, 2},
		{"zero size", "wire size", 8, 3, 10, 0, 2},
		{"oversize", "wire size", 8, 3, 10, 20000, 2},
		{"negative guard", "negative guard", 8, 3, 10, 64, -5},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panic: %v", r)
				}
			}()
			err := run("", tc.flowN, tc.hops, tc.periodMs, tc.sizeB, tc.guardUs, false)
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want one naming %q", err, tc.want)
			}
		})
	}
}
