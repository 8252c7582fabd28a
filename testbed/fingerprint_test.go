package testbed

import (
	"bufio"
	"flag"
	"fmt"
	"os"
	"runtime"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tas"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

var updateFingerprints = flag.Bool("update", false, "rewrite testdata/export_fingerprints.txt from this tree")

const fingerprintFile = "testdata/export_fingerprints.txt"

// fingerprintCase is one canonical scenario of TestExportFingerprints.
type fingerprintCase struct {
	name   string
	params workload.Params
	opts   Options // GPTP, faults, partitions, watchdog; the rest is filled in
	tas    bool    // install a synthesized 802.1Qbv schedule instead of CQF
	warmup sim.Time
	dur    sim.Time
}

func fingerprintCases() []fingerprintCase {
	sw1, sw2, sw3 := 1, 2, 3
	mesh := workload.Params{Topology: "mesh", Switches: 36, TSFlows: 256, Hops: 4, WireSize: 64, SlotUs: 65, Seed: 42}
	ring := workload.Params{Topology: "ring", Switches: 6, TSFlows: 64, Hops: 3, WireSize: 64, SlotUs: 65, Seed: 42}
	return []fingerprintCase{
		{name: "mesh-36", params: mesh, dur: 50 * sim.Millisecond},
		{name: "mesh-36-2-partitions", params: mesh, opts: Options{Partitions: 2}, dur: 50 * sim.Millisecond},
		{name: "ring-gptp-rc-be", params: withBackground(ring, 200, 300), opts: Options{EnableGPTP: true},
			warmup: 200 * sim.Millisecond, dur: 50 * sim.Millisecond},
		{name: "bidir-ring-frer-faults", dur: 40 * sim.Millisecond,
			params: workload.Params{Topology: "bidir-ring", Switches: 6, TSFlows: 48, Hops: 4, WireSize: 64, SlotUs: 65, FRERFlows: 16, Seed: 42},
			opts: Options{EnableWatchdog: true, Faults: &faults.Scenario{Faults: []faults.Fault{
				{AtUs: 5_000, Kind: faults.KindLinkDown, A: &sw1, B: &sw2},
				{AtUs: 12_000, Kind: faults.KindLinkUp, A: &sw1, B: &sw2},
				{AtUs: 2_000, Kind: faults.KindLinkLoss, A: &sw2, B: &sw3, Prob: 0.25, DurationUs: 8_000},
				{AtUs: 8_000, Kind: faults.KindClockStep, Switch: &sw3, StepNs: -150_000},
				{AtUs: 15_000, Kind: faults.KindGateClose, Switch: &sw2, Port: &sw1, DurationUs: 4_000},
			}}}},
		{name: "ring-queue-full", dur: 15 * sim.Millisecond,
			params: withBackground(workload.Params{Topology: "ring", Switches: 6, TSFlows: 512, Hops: 4, WireSize: 512, SlotUs: 8, Seed: 42}, 300, 300)},
		{name: "fattree", params: workload.Params{Topology: "fattree", Switches: 20, TSFlows: 128, Hops: 4, WireSize: 64, SlotUs: 65, Seed: 42},
			dur: 50 * sim.Millisecond},
		{name: "ring-tas", params: workload.Params{Topology: "ring", Switches: 6, TSFlows: 48, Hops: 3, WireSize: 64, SlotUs: 65, Seed: 13},
			tas: true, dur: 50 * sim.Millisecond},
	}
}

func withBackground(p workload.Params, rc, be int) workload.Params {
	p.RCMbps, p.BEMbps = rc, be
	return p
}

// run builds and runs the case and returns its export digest.
func (c fingerprintCase) run(t *testing.T) string {
	t.Helper()
	wl, err := workload.Build(c.params)
	if err != nil {
		t.Fatal(err)
	}
	opts := c.opts
	opts.Topo, opts.Flows, opts.Design = wl.Topo, wl.Specs, wl.Design
	opts.Seed, opts.Metrics = c.params.Seed, metrics.New()
	var sch *tas.Schedule
	if c.tas {
		if sch, err = tas.Synthesize(wl.Specs, wl.Topo, tas.Options{MaxFrameBytes: c.params.WireSize, Guard: sim.Microsecond}); err != nil {
			t.Fatal(err)
		}
		cfg := wl.Der.Config
		cfg.GateSize = max(cfg.GateSize, sch.MaxGateEntries)
		if opts.Design, err = core.BuilderFor(cfg, nil).Build(); err != nil {
			t.Fatal(err)
		}
	}
	net, err := Build(opts)
	if err != nil {
		t.Fatal(err)
	}
	if sch != nil {
		if err := net.InstallTAS(sch); err != nil {
			t.Fatal(err)
		}
		sch.Apply(wl.Specs)
	}
	net.Run(c.warmup, c.dur)
	return net.ExportDigest()
}

// TestExportFingerprints pins what a user exports — the per-flow rows
// and the Prometheus text, heap-depth gauge aside (Net.ExportDigest) —
// on a few short canonical scenarios: a mesh serial and partitioned,
// the gPTP ring with RC/BE, a faulted bidir-ring with FRER, clock steps
// and a gate-close, a ring that drops for queue-full, a fattree and a
// synthesized TAS schedule. A change that only makes the simulator
// faster must leave every digest as committed; a deliberate output
// change rewrites them with -update and says so.
//
// The digests hold on amd64 only. FlowStats keeps float sums, and the
// Go specification lets a compiler fuse x*y+z into one rounding: the
// arm64, loong64, ppc64le, riscv64 and s390x back ends do, which can
// move Jitter's last nanosecond; the amd64 one fuses only math.FMA.
func TestExportFingerprints(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skipf("digests are pinned on amd64; %s may fuse the float sums", runtime.GOARCH)
	}
	cases := fingerprintCases()
	got := make([]string, len(cases))
	for i, c := range cases {
		got[i] = c.run(t)
	}
	if got[0] != got[1] {
		t.Errorf("the partitioned mesh exports %.12s, the serial one %.12s", got[1], got[0])
	}
	if *updateFingerprints {
		var b strings.Builder
		for i, c := range cases {
			fmt.Fprintf(&b, "%s %s\n", c.name, got[i])
		}
		if err := os.WriteFile(fingerprintFile, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want := readFingerprints(t)
	for i, c := range cases {
		if w, ok := want[c.name]; !ok {
			t.Errorf("%s: no committed digest (run with -update)", c.name)
		} else if got[i] != w {
			t.Errorf("%s: export digest %.12s, committed %.12s", c.name, got[i], w)
		}
	}
	if len(want) != len(cases) {
		t.Errorf("%s holds %d digests for %d cases", fingerprintFile, len(want), len(cases))
	}
}

func readFingerprints(t *testing.T) map[string]string {
	t.Helper()
	f, err := os.Open(fingerprintFile)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	want := make(map[string]string)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		name, digest, ok := strings.Cut(sc.Text(), " ")
		if !ok {
			t.Fatalf("%s: malformed line %q", fingerprintFile, sc.Text())
		}
		want[name] = digest
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return want
}
