package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/topology"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// runArgs runs tsnbuild on args and returns what it printed.
func runArgs(args ...string) (string, error) {
	var out strings.Builder
	err := run(&out, parseFlags(args))
	return out.String(), err
}

func TestRunAllTopologies(t *testing.T) {
	for _, topo := range topology.Names {
		if _, err := runArgs("-topology", topo, "-switches", "6", "-flows", "64", "-hops", "2"); err != nil {
			t.Errorf("%s: %v", topo, err)
		}
	}
}

func TestRunASICPlatform(t *testing.T) {
	fpga, err := runArgs("-flows", "32", "-hops", "2")
	if err != nil {
		t.Fatal(err)
	}
	asic, err := runArgs("-flows", "32", "-hops", "2", "-platform", "asic")
	if err != nil {
		t.Fatal(err)
	}
	if asic == fpga {
		t.Fatal("-platform asic printed the FPGA report")
	}
}

func TestRunCommercialOnly(t *testing.T) {
	if _, err := runArgs("-commercial"); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if _, err := runArgs("-topology", "moebius"); err == nil {
		t.Error("unknown topology accepted")
	}
	if _, err := runArgs("-platform", "tpu"); err == nil {
		t.Error("unknown platform accepted")
	}
	// Below a shape's floor is an error, not a constructor panic.
	for _, c := range []struct{ topo, switches string }{{"ring", "2"}, {"linear", "1"}, {"star", "1"}, {"tree", "1"}} {
		if _, err := runArgs("-topology", c.topo, "-switches", c.switches, "-hops", "1"); err == nil {
			t.Errorf("%s with %s switches accepted", c.topo, c.switches)
		}
	}
}

func TestRunSpec(t *testing.T) {
	doc := `{"topology":"linear","switches":4,"hosts":{"a":0,"b":3},
		"flows":[{"class":"TS","count":8,"src":"a","dst":"b","period_us":10000}]}`
	dir := t.TempDir()
	path := filepath.Join(dir, "s.json")
	if err := os.WriteFile(path, []byte(doc), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := runArgs("-spec", path); err != nil {
		t.Fatal(err)
	}
	if _, err := runArgs("-spec", filepath.Join(dir, "missing.json")); err == nil {
		t.Error("missing spec accepted")
	}
	if _, err := runArgs("-spec", path, "-platform", "tpu"); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestRunSpecExampleFile(t *testing.T) {
	// The checked-in example scenario must stay derivable.
	path := filepath.Join("..", "..", "examples", "scenarios", "production-line.json")
	if _, err := os.Stat(path); err != nil {
		t.Skip("example scenario not present")
	}
	if _, err := runArgs("-spec", path); err != nil {
		t.Fatal(err)
	}
}

func TestRunTreeTopology(t *testing.T) {
	if _, err := runArgs("-topology", "tree", "-switches", "7", "-flows", "64", "-hops", "3"); err != nil {
		t.Fatal(err)
	}
}

// TestFrontEndsAgree: tsnbuild parses the shared scenario flags into
// the Params tsntas and tsnsim parse them into (each command's test of
// this name checks the same value), prints the queue depth
// workload.Build derives from them — each flow traverses -hops
// switches, no more — and refuses hops beyond the network.
func TestFrontEndsAgree(t *testing.T) {
	args := []string{"-topology", "ring", "-switches", "6", "-flows", "1024", "-hops", "3"}
	want := workload.Params{Topology: "ring", Switches: 6, TSFlows: 1024, Hops: 3, WireSize: 64, SlotUs: 65, Seed: 42}
	if got := parseFlags(args).Params; got != want {
		t.Fatalf("tsnbuild %v parses into %+v, want %+v", args, got, want)
	}
	if got := parseFlags(nil).Params; got != want {
		t.Fatalf("tsnbuild defaults %+v, want %+v", got, want)
	}
	b, err := workload.Build(want)
	if err != nil {
		t.Fatal(err)
	}
	if d := b.Der.Config.QueueDepth; d != 5 {
		t.Fatalf("workload.Build derives depth %d for a 3-hop ring of 6, want 5", d)
	}
	out, err := runArgs(args...)
	if err != nil {
		t.Fatal(err)
	}
	if line := fmt.Sprintf("→ depth %d,", b.Der.Config.QueueDepth); !strings.Contains(out, line) {
		t.Fatalf("tsnbuild printed no %q:\n%s", line, out)
	}
	if _, err := runArgs("-switches", "6", "-hops", "7"); err == nil || !strings.Contains(err.Error(), "hops 7") {
		t.Fatalf("-switches 6 -hops 7: err = %v, want one naming hops 7", err)
	}
}
