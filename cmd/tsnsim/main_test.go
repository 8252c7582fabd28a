package main

import (
	"bytes"
	"encoding/csv"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/chaos"
	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// baseOpts returns a small, fast scenario; tests override fields.
func baseOpts() runOpts {
	return runOpts{Case: chaos.Case{Params: workload.Params{
		Topology: "ring", Switches: 6, TSFlows: 16, Hops: 2,
		WireSize: 64, SlotUs: 65, Seed: 1,
	}, DurMs: 20}}
}

// withFlags is baseOpts with extra tsnsim flags parsed on top.
func withFlags(t *testing.T, extra ...string) runOpts {
	t.Helper()
	base := baseOpts()
	o, err := parseFlags(append(base.TsnsimArgs("", ""), extra...))
	if err != nil {
		t.Fatal(err)
	}
	return *o
}

func TestRunRingSmall(t *testing.T) {
	o := baseOpts()
	o.TSFlows, o.RCMbps, o.BEMbps = 32, 50, 50
	if _, err := run(o, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunStarWithGPTP(t *testing.T) {
	if testing.Short() {
		t.Skip("gPTP warmup is seconds of simulated time")
	}
	o := baseOpts()
	o.Topology, o.Switches, o.gptp = "star", 4, true
	if _, err := run(o, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunLinear(t *testing.T) {
	o := baseOpts()
	o.Topology, o.Switches, o.Hops, o.WireSize, o.BEMbps = "linear", 4, 3, 128, 20
	if _, err := run(o, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunPartitioned(t *testing.T) {
	o := baseOpts()
	o.partitions, o.RCMbps = 3, 30
	net, err := run(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if net.Partitions() != 3 {
		t.Fatalf("ran on %d partitions, want 3", net.Partitions())
	}
}

func TestPartitionsRejectUnshardableFlags(t *testing.T) {
	cases := []struct {
		name string
		mut  func(*runOpts)
	}{
		{"gptp", func(o *runOpts) { o.gptp = true }},
		{"watchdog", func(o *runOpts) { o.Watchdog = true }},
		{"faults", func(o *runOpts) { o.scenario = &faults.Scenario{} }},
		{"reconfig", func(o *runOpts) { o.Reconfig = &chaos.Delta{} }},
		{"serve", func(o *runOpts) { o.serve = ":0" }},
		{"progress", func(o *runOpts) { o.progress = 1 }},
		{"deadline", func(o *runOpts) { o.deadline = 1 }},
		{"hotspots", func(o *runOpts) { o.hotspots = true }},
		{"trace-json", func(o *runOpts) { o.traceJSON = "x.json" }},
	}
	for _, tc := range cases {
		o := baseOpts()
		o.partitions = 2
		tc.mut(&o)
		if _, err := run(o, nil); err == nil {
			t.Errorf("%s: accepted with -partitions", tc.name)
		}
	}
	// FRER flows shard (testbed's TestPartitionedParityFRER holds them
	// to the serial export).
	o := baseOpts()
	o.partitions = 2
	o.Topology, o.FRERFlows = "bidir-ring", 2
	if _, err := run(o, nil); err != nil {
		t.Errorf("frer: rejected with -partitions: %v", err)
	}
}

func TestRunUnknownTopology(t *testing.T) {
	o := baseOpts()
	o.Topology = "moebius"
	if _, err := run(o, nil); err == nil {
		t.Fatal("unknown topology accepted")
	}
}

// TestBadWorkloadExitsOne: a workload below its topology's floor,
// without flows or without a measurement window is an error and exit
// status 1, not a crash.
func TestBadWorkloadExitsOne(t *testing.T) {
	for _, args := range [][]string{
		{"-switches", "2"},
		{"-flows", "0"},
		{"-topology", "star", "-switches", "1"},
		{"-topology", "mesh", "-switches", "1"},
		{"-duration", "0"},
		{"-duration", "-5"},
	} {
		if got := status(append([]string{"-no-gptp", "-duration", "1"}, args...)); got != 1 {
			t.Errorf("tsnsim %v exits %d, want 1", args, got)
		}
	}
}

// TestFrontEndsAgree: tsnsim parses the shared scenario flags into the
// Params tsnbuild and tsntas parse them into (each command's test of
// this name checks the same value), and those are its defaults.
func TestFrontEndsAgree(t *testing.T) {
	args := []string{"-topology", "ring", "-switches", "6", "-flows", "1024", "-hops", "3"}
	want := workload.Params{Topology: "ring", Switches: 6, TSFlows: 1024, Hops: 3, WireSize: 64, SlotUs: 65, Seed: 42}
	for _, a := range [][]string{args, nil} {
		o, err := parseFlags(a)
		if err != nil {
			t.Fatal(err)
		}
		if o.Params != want {
			t.Fatalf("tsnsim %v parses into %+v, want %+v", a, o.Params, want)
		}
	}
}

func TestCSVOutput(t *testing.T) {
	o := baseOpts()
	o.csvPath = filepath.Join(t.TempDir(), "flows.csv")
	if err := runWithOutputs(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.csvPath)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	if len(lines) != 17 { // header + 16 flows
		t.Fatalf("CSV lines = %d, want 17", len(lines))
	}
	if !strings.HasPrefix(lines[0], "flow,class,sent,received") {
		t.Fatalf("header = %q", lines[0])
	}
	if !strings.Contains(lines[1], "TS") {
		t.Fatalf("row = %q", lines[1])
	}
}

// TestCSVUnreceivedFlow: a flow that received nothing — its path cut
// by a link-down at t=0 — is written with min_us 0.000, like its other
// latency columns, not the collector's no-delivery-yet sentinel.
func TestCSVUnreceivedFlow(t *testing.T) {
	dir := t.TempDir()
	scenario, out := filepath.Join(dir, "faults.json"), filepath.Join(dir, "flows.csv")
	if err := os.WriteFile(scenario, []byte(`{"faults":[{"at_us":0,"kind":"link-down","a":0,"b":1}]}`), 0o644); err != nil {
		t.Fatal(err)
	}
	o, err := parseFlags([]string{"-no-gptp", "-flows", "32", "-duration", "10", "-csv", out, "-faults", scenario})
	if err != nil {
		t.Fatal(err)
	}
	if err := runWithOutputs(*o); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	rows, err := csv.NewReader(f).ReadAll()
	if err != nil {
		t.Fatal(err)
	}
	silent := 0
	for _, row := range rows[1:] {
		if row[3] != "0" {
			continue
		}
		silent++
		if row[4] != "0.000" || row[5] != "0.000" || row[6] != "0.000" || row[7] != "0.000" {
			t.Errorf("flow %s received nothing but reads mean/jitter/min/max %v", row[0], row[4:8])
		}
	}
	if silent == 0 {
		t.Fatal("the link-down left every flow a delivery: the scenario no longer cuts a path")
	}
}

func TestPcapOutput(t *testing.T) {
	o := baseOpts()
	o.TSFlows = 8
	o.DurMs = 10
	o.pcapPath = filepath.Join(t.TempDir(), "run.pcap")
	if err := runWithOutputs(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.pcapPath)
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 24+16+60 {
		t.Fatalf("pcap too small: %d bytes", len(data))
	}
	// Nanosecond pcap magic, little endian.
	if data[0] != 0x4d || data[1] != 0x3c || data[2] != 0xb2 || data[3] != 0xa1 {
		t.Fatalf("pcap magic = % x", data[:4])
	}
}

func TestPcapBadPath(t *testing.T) {
	o := baseOpts()
	o.pcapPath = "/nonexistent/x.pcap"
	if err := runWithOutputs(o); err == nil {
		t.Fatal("bad pcap path accepted")
	}
}

func TestHotspots(t *testing.T) {
	o := baseOpts()
	o.Hops = 3
	o.hotspots = true
	if err := runWithOutputs(o); err != nil {
		t.Fatal(err)
	}
}

func TestCSVBadPath(t *testing.T) {
	o := baseOpts()
	o.csvPath = "/nonexistent/dir/x.csv"
	if err := runWithOutputs(o); err == nil {
		t.Fatal("bad CSV path accepted")
	}
}

func TestMetricsPrometheusOutput(t *testing.T) {
	o := baseOpts()
	o.metricsPath = filepath.Join(t.TempDir(), "run.prom")
	if err := runWithOutputs(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	text := string(data)
	for _, want := range []string{
		"# TYPE tsn_switch_rx_frames_total counter",
		`tsn_switch_rx_frames_total{switch="0"}`,
		"# TYPE tsn_e2e_latency_ns histogram",
		`le="+Inf"`,
		"tsn_sim_events_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("exposition missing %q", want)
		}
	}
	// Every line must be a comment or `name{labels} value`.
	for _, line := range strings.Split(strings.TrimSpace(text), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		if len(strings.Fields(line)) != 2 {
			t.Fatalf("malformed sample line %q", line)
		}
	}
}

func TestMetricsJSONOutput(t *testing.T) {
	o := baseOpts()
	o.metricsPath = filepath.Join(t.TempDir(), "run.json")
	o.metricsJSON = true
	if err := runWithOutputs(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.metricsPath)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Families []struct {
			Name string `json:"name"`
		} `json:"families"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(snap.Families) == 0 {
		t.Fatal("no metric families exported")
	}
}

func TestTraceJSONOutput(t *testing.T) {
	o := baseOpts()
	o.TSFlows = 8
	o.DurMs = 10
	o.traceJSON = filepath.Join(t.TempDir(), "trace.json")
	if err := runWithOutputs(o); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(o.traceJSON)
	if err != nil {
		t.Fatal(err)
	}
	var got struct {
		TraceEvents []json.RawMessage `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &got); err != nil {
		t.Fatalf("invalid trace JSON: %v", err)
	}
	if len(got.TraceEvents) == 0 {
		t.Fatal("no trace events exported")
	}
}

func TestMetricsBadPath(t *testing.T) {
	o := baseOpts()
	o.metricsPath = "/nonexistent/dir/x.prom"
	if err := runWithOutputs(o); err == nil {
		t.Fatal("bad metrics path accepted")
	}
}

// faultScenarioJSON is a mixed fault script used by the -faults tests:
// a transient outage and probabilistic loss on ring trunks, plus a
// clock phase step. Times sit inside the 20 ms test window.
const faultScenarioJSON = `{
	"faults": [
		{"at_us": 5000, "kind": "link-down", "a": 1, "b": 2},
		{"at_us": 9000, "kind": "link-up", "a": 1, "b": 2},
		{"at_us": 2000, "kind": "link-loss", "a": 2, "b": 3, "prob": 0.3, "duration_us": 10000},
		{"at_us": 4000, "kind": "clock-step", "switch": 4, "step_ns": 700}
	]
}`

func TestRunWithFaultScenario(t *testing.T) {
	path := filepath.Join(t.TempDir(), "faults.json")
	if err := os.WriteFile(path, []byte(faultScenarioJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	o := withFlags(t, "-faults", path)
	net, err := run(o, nil)
	if err != nil {
		t.Fatal(err)
	}
	if net.Injector == nil {
		t.Fatal("no injector built despite -faults")
	}
	if net.Injector.Injected() != 3 || net.Injector.Recovered() != 2 {
		t.Fatalf("fault counts = %d/%d, want 3/2",
			net.Injector.Injected(), net.Injector.Recovered())
	}
}

func TestRunBidirRing(t *testing.T) {
	o := baseOpts()
	o.Topology = "bidir-ring"
	if _, err := run(o, nil); err != nil {
		t.Fatal(err)
	}
}

func TestFaultScenarioDeterministic(t *testing.T) {
	// Same -seed, same fault scenario: the full metrics snapshot —
	// every counter, gauge and histogram bucket in the registry — must
	// be byte-identical across runs.
	dir := t.TempDir()
	scenario := filepath.Join(dir, "faults.json")
	if err := os.WriteFile(scenario, []byte(faultScenarioJSON), 0o644); err != nil {
		t.Fatal(err)
	}
	snapshot := func(out string) []byte {
		o := withFlags(t, "-faults", scenario)
		o.TSFlows, o.RCMbps = 32, 30
		o.metricsPath = filepath.Join(dir, out)
		o.metricsJSON = true
		if err := runWithOutputs(o); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(o.metricsPath)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	first, second := snapshot("a.json"), snapshot("b.json")
	if !bytes.Equal(first, second) {
		t.Fatalf("metrics snapshots differ between identical runs:\n--- first ---\n%.2000s\n--- second ---\n%.2000s", first, second)
	}
}

func TestFaultScenarioBadFile(t *testing.T) {
	if _, err := parseFlags([]string{"-faults", "/nonexistent/faults.json"}); err == nil {
		t.Fatal("missing fault scenario accepted")
	}
}

// TestSwitchesLineListsEveryDropReason: with the watchdog shedding
// traffic off a leaked pool, the switches line lists degraded drops
// too, and the reasons it lists sum to its drops total.
func TestSwitchesLineListsEveryDropReason(t *testing.T) {
	path := filepath.Join(t.TempDir(), "leak.json")
	leak := `{"faults": [{"at_us": 5000, "kind": "buffer-leak", "switch": 0, "port": 0, "slots": 1000}]}`
	if err := os.WriteFile(path, []byte(leak), 0o644); err != nil {
		t.Fatal(err)
	}
	net, err := run(withFlags(t, "-watchdog", "-faults", path, "-rc", "100", "-be", "200"), nil)
	if err != nil {
		t.Fatal(err)
	}
	line := switchesLine(net.SwitchStats())
	var total, sum, degraded uint64
	if _, err := fmt.Sscanf(line[strings.Index(line, "drops="):], "drops=%d", &total); err != nil {
		t.Fatalf("%q: %v", line, err)
	}
	reasons := strings.Fields(strings.Trim(line[strings.Index(line, "("):], "()"))
	if len(reasons) != len(tsnswitch.DropReasons()) {
		t.Fatalf("%q lists %d reasons, want %d", line, len(reasons), len(tsnswitch.DropReasons()))
	}
	for _, r := range reasons {
		name, v, _ := strings.Cut(r, "=")
		n, err := strconv.ParseUint(v, 10, 64)
		if err != nil {
			t.Fatalf("%q: %v", line, err)
		}
		sum += n
		if name == tsnswitch.DropDegraded.String() {
			degraded = n
		}
	}
	if degraded == 0 || sum != total {
		t.Fatalf("%q: degraded=%d, reasons sum to %d, drops=%d", line, degraded, sum, total)
	}
}
