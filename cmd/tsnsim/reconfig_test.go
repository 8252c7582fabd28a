package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

func writeSpec(t *testing.T, body string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "reconfig.json")
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestReconfigFlagCommits(t *testing.T) {
	o := withFlags(t, "-reconfig", writeSpec(t,
		`{"at_us": 10000, "unicast_size": 64, "class_size": 64, "meter_size": 64, "buffer_num": 256}`))
	net, err := run(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	live := net.LiveConfig()
	if live.UnicastSize != 64 || live.ClassSize != 64 || live.BufferNum != 256 {
		t.Fatalf("candidate not committed: %+v", live)
	}
	// Switch 0 carries 5 of the ring's 16 flows, so it holds the
	// network-wide 64 minus its derived spare of 11.
	wl, err := workload.Build(workload.Params{
		Topology: o.Topology, Switches: o.Switches, TSFlows: o.TSFlows, Hops: o.Hops,
		WireSize: o.WireSize, SlotUs: o.SlotUs, Seed: o.Seed,
	})
	if err != nil {
		t.Fatal(err)
	}
	want := wl.Design.Local(live, 0).UnicastSize
	if ts := net.Switches[0].Config(); ts.UnicastSize != want || want != 53 {
		t.Fatalf("switch table not grown: %d, want %d (53)", ts.UnicastSize, want)
	}
}

func TestReconfigFlagRejectedKeepsLiveConfig(t *testing.T) {
	// Shrinking the MAC table to one entry is below the live occupancy
	// of 16 programmed flows: the transaction must be rejected and the
	// run must still complete cleanly.
	o := withFlags(t, "-reconfig", writeSpec(t, `{"at_us": 10000, "unicast_size": 1}`))
	net, err := run(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if net.LiveConfig().UnicastSize == 1 {
		t.Fatal("invalid candidate was applied")
	}
}

func TestReconfigSpecStrictParsing(t *testing.T) {
	cases := []struct {
		name, body, wantErr string
	}{
		{"unknown field", `{"at_us": 0, "uncast_size": 64}`, "unknown field"},
		{"negative time", `{"at_us": -1, "unicast_size": 64}`, "negative at_us -1"},
		{"negative size", `{"at_us": 0, "unicast_size": -5}`, "negative unicast_size -5"},
		{"negative slot", `{"at_us": 0, "slot_us": -65}`, "negative slot_us -65"},
		{"wrong type", `{"at_us": 0, "unicast_size": "big"}`, "cannot unmarshal"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := parseFlags([]string{"-reconfig", writeSpec(t, tc.body)})
			if err == nil {
				t.Fatalf("accepted: %s", tc.body)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

func TestReconfigSpecBadPath(t *testing.T) {
	if _, err := parseFlags([]string{"-reconfig", "/nonexistent/reconfig.json"}); err == nil {
		t.Fatal("missing reconfig spec accepted")
	}
}

func TestDeadlineDiagnostic(t *testing.T) {
	got := deadlineDiagnostic(30*time.Second, 1500000, 123456, 789)
	for _, want := range []string{
		"deadline 30s exceeded", "sim time reached", "events executed:   123456",
		"event-queue depth: 789",
	} {
		if !strings.Contains(got, want) {
			t.Errorf("diagnostic missing %q:\n%s", want, got)
		}
	}
}

func TestDeadlineGuardFires(t *testing.T) {
	status := -1
	exit = func(code int) { status = code }
	defer func() { exit = os.Exit }()

	o := baseOpts()
	// Enough simulated work that the progress hook (every 64k events)
	// fires at least once; any positive wall time exceeds 1 ns.
	o.TSFlows, o.RCMbps, o.BEMbps, o.DurMs = 32, 50, 50, 300
	o.deadline = time.Nanosecond
	if _, err := run(o, nil); err != nil {
		t.Fatal(err)
	}
	if status != 2 {
		t.Fatalf("exit status = %d, want 2", status)
	}
}

func TestDeadlineNotExceeded(t *testing.T) {
	status := -1
	exit = func(code int) { status = code }
	defer func() { exit = os.Exit }()

	o := baseOpts()
	o.deadline = time.Hour
	if _, err := run(o, nil); err != nil {
		t.Fatal(err)
	}
	if status != -1 {
		t.Fatalf("guard fired with an hour of headroom (status %d)", status)
	}
}
