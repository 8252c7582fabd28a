package main

import (
	"os"
	"path/filepath"
	"testing"
)

func TestRunAllTopologies(t *testing.T) {
	for _, topo := range []string{"star", "ring", "linear"} {
		if err := run(topo, 6, 3, 64, 2, 10, 64, 65, "fpga", false); err != nil {
			t.Errorf("%s: %v", topo, err)
		}
	}
}

func TestRunASICPlatform(t *testing.T) {
	if err := run("ring", 6, 3, 32, 2, 10, 64, 65, "asic", false); err != nil {
		t.Fatal(err)
	}
}

func TestRunCommercialOnly(t *testing.T) {
	if err := run("ring", 6, 3, 32, 2, 10, 64, 65, "fpga", true); err != nil {
		t.Fatal(err)
	}
}

func TestRunErrors(t *testing.T) {
	if err := run("mesh", 6, 3, 32, 2, 10, 64, 65, "fpga", false); err == nil {
		t.Error("unknown topology accepted")
	}
	if err := run("ring", 6, 3, 32, 2, 10, 64, 65, "tpu", false); err == nil {
		t.Error("unknown platform accepted")
	}
	// Below a shape's floor is an error, not a constructor panic.
	for _, c := range []struct {
		topo               string
		switches, children int
	}{{"ring", 2, 3}, {"linear", 1, 3}, {"star", 6, 0}, {"tree", 6, 0}} {
		if err := run(c.topo, c.switches, c.children, 32, 1, 10, 64, 65, "fpga", false); err == nil {
			t.Errorf("%s with %d switches, %d children accepted", c.topo, c.switches, c.children)
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
	if err := runSpec(path, "fpga"); err != nil {
		t.Fatal(err)
	}
	if err := runSpec(filepath.Join(dir, "missing.json"), "fpga"); err == nil {
		t.Error("missing spec accepted")
	}
	if err := runSpec(path, "tpu"); err == nil {
		t.Error("unknown platform accepted")
	}
}

func TestRunSpecExampleFile(t *testing.T) {
	// The checked-in example scenario must stay derivable.
	path := filepath.Join("..", "..", "examples", "scenarios", "production-line.json")
	if _, err := os.Stat(path); err != nil {
		t.Skip("example scenario not present")
	}
	if err := runSpec(path, "fpga"); err != nil {
		t.Fatal(err)
	}
}

func TestRunTreeTopology(t *testing.T) {
	if err := run("tree", 0, 2, 64, 3, 10, 64, 65, "fpga", false); err != nil {
		t.Fatal(err)
	}
}
