package scenariofile

import (
	"bytes"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

const sampleDoc = `{
  "topology": "ring",
  "switches": 6,
  "slot_us": 65,
  "hosts": {"plc1": 0, "plc2": 2, "drive1": 4},
  "flows": [
    {"class": "TS", "count": 12, "period_us": 10000, "deadline_us": 2000,
     "src_hosts": ["plc1", "plc2"], "dst_hosts": ["drive1"]},
    {"class": "RC", "src": "plc1", "dst": "drive1", "rate_mbps": 100},
    {"class": "BE", "src": "plc2", "dst": "drive1", "rate_mbps": 50, "size_b": 512}
  ]
}`

func TestParseAndBuild(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	topo, specs, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	if topo.N != 6 || topo.EnabledTSNPorts != 1 {
		t.Fatalf("topo = %d/%d", topo.N, topo.EnabledTSNPorts)
	}
	if len(specs) != 14 {
		t.Fatalf("specs = %d, want 14", len(specs))
	}
	ts, rc, be := 0, 0, 0
	for _, s := range specs {
		if len(s.Path) == 0 {
			t.Fatalf("flow %d path not bound", s.ID)
		}
		switch s.Class {
		case ethernet.ClassTS:
			ts++
			if s.Period != 10*sim.Millisecond || s.Deadline != 2*sim.Millisecond || s.WireSize != 64 {
				t.Fatalf("TS spec = %+v", s)
			}
		case ethernet.ClassRC:
			rc++
			if s.Rate != 100*ethernet.Mbps || s.WireSize != 1024 {
				t.Fatalf("RC spec = %+v", s)
			}
		case ethernet.ClassBE:
			be++
			if s.WireSize != 512 {
				t.Fatalf("BE spec = %+v", s)
			}
		}
	}
	if ts != 12 || rc != 1 || be != 1 {
		t.Fatalf("counts = %d/%d/%d", ts, rc, be)
	}
}

func TestScenarioDerives(t *testing.T) {
	f, err := Parse(strings.NewReader(sampleDoc))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := f.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.SlotSize != 65*sim.Microsecond {
		t.Fatalf("slot = %v", sc.SlotSize)
	}
	der, err := core.DeriveConfig(sc)
	if err != nil {
		t.Fatal(err)
	}
	if der.Config.PortNum != 1 || der.Config.UnicastSize != 14 {
		t.Fatalf("derived = %+v", der.Config)
	}
}

func TestSrcDstCycling(t *testing.T) {
	f, _ := Parse(strings.NewReader(sampleDoc))
	_, specs, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	// TS flows alternate plc1/plc2 as sources.
	if specs[0].SrcHost == specs[1].SrcHost {
		t.Fatal("sources did not cycle")
	}
	if specs[0].SrcHost != specs[2].SrcHost {
		t.Fatal("cycle period wrong")
	}
}

func TestParseErrors(t *testing.T) {
	bad := []string{
		`{`,                                // truncated
		`{"topology":"ring","extra":true}`, // unknown field
	}
	for _, doc := range bad {
		if _, err := Parse(strings.NewReader(doc)); err == nil {
			t.Errorf("accepted %q", doc)
		}
	}
}

func TestBuildErrors(t *testing.T) {
	cases := []struct {
		name string
		doc  string
	}{
		{"no hosts", `{"topology":"ring","switches":3,"flows":[]}`},
		{"bad topology", `{"topology":"mesh","switches":3,"hosts":{"a":0},
			"flows":[{"class":"TS","src":"a","dst":"a","period_us":1000}]}`},
		{"bad switch index", `{"topology":"ring","switches":3,"hosts":{"a":9},
			"flows":[{"class":"TS","src":"a","dst":"a","period_us":1000}]}`},
		{"unknown host", `{"topology":"ring","switches":3,"hosts":{"a":0},
			"flows":[{"class":"TS","src":"a","dst":"zz","period_us":1000}]}`},
		{"unknown class", `{"topology":"ring","switches":3,"hosts":{"a":0},
			"flows":[{"class":"XX","src":"a","dst":"a"}]}`},
		{"no flows", `{"topology":"ring","switches":3,"hosts":{"a":0},"flows":[]}`},
		{"TS without period", `{"topology":"ring","switches":3,"hosts":{"a":0},
			"flows":[{"class":"TS","src":"a","dst":"a"}]}`},
		{"RC without rate", `{"topology":"ring","switches":3,"hosts":{"a":0},
			"flows":[{"class":"RC","src":"a","dst":"a"}]}`},
		{"flow without src", `{"topology":"ring","switches":3,"hosts":{"a":0},
			"flows":[{"class":"TS","dst":"a","period_us":1000}]}`},
		{"small star", `{"topology":"star","switches":1,"hosts":{"a":0},
			"flows":[{"class":"TS","src":"a","dst":"a","period_us":1000}]}`},
	}
	for _, c := range cases {
		f, err := Parse(strings.NewReader(c.doc))
		if err != nil {
			t.Errorf("%s: parse failed: %v", c.name, err)
			continue
		}
		if _, _, err := f.Build(); err == nil {
			t.Errorf("%s: Build accepted invalid document", c.name)
		}
	}
}

func TestStarTopologyFile(t *testing.T) {
	doc := `{"topology":"star","switches":4,"hosts":{"a":1,"b":3},
		"flows":[{"class":"TS","src":"a","dst":"b","period_us":2000}]}`
	f, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	topo, specs, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	if topo.Kind.String() != "star" || topo.N != 4 {
		t.Fatalf("topo = %+v", topo)
	}
	if len(specs[0].Path) != 3 { // child → core → child
		t.Fatalf("path = %v", specs[0].Path)
	}
}

func TestBurstAndAccessRate(t *testing.T) {
	doc := `{"topology":"ring","switches":3,"access_rate_mbps":100,
		"hosts":{"a":0,"b":1},
		"flows":[
			{"class":"TS","src":"a","dst":"b","period_us":10000},
			{"class":"RC","src":"a","dst":"b","rate_mbps":50,"burst":16}
		]}`
	f, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	sc, err := f.Scenario()
	if err != nil {
		t.Fatal(err)
	}
	if sc.AccessRate != 100*ethernet.Mbps {
		t.Fatalf("AccessRate = %d", sc.AccessRate)
	}
	var rc *struct{ burst int }
	for _, s := range sc.Flows {
		if s.Class == ethernet.ClassRC {
			rc = &struct{ burst int }{s.Burst}
		}
	}
	if rc == nil || rc.burst != 16 {
		t.Fatalf("RC burst = %+v", rc)
	}
	// The scenario must still derive (feasibility loop engages).
	if _, err := core.DeriveConfig(sc); err != nil {
		t.Fatal(err)
	}
}

func TestLoadMissingFile(t *testing.T) {
	if _, err := Load("/nonexistent/scenario.json"); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestTreeTopologyFile(t *testing.T) {
	doc := `{"topology":"tree","spines":2,"leaves":2,"hosts":{"a":2,"b":5},
		"flows":[{"class":"TS","src":"a","dst":"b","period_us":2000}]}`
	f, err := Parse(strings.NewReader(doc))
	if err != nil {
		t.Fatal(err)
	}
	topo, specs, err := f.Build()
	if err != nil {
		t.Fatal(err)
	}
	if topo.Kind.String() != "tree" || topo.N != 7 {
		t.Fatalf("topo = %v/%d", topo.Kind, topo.N)
	}
	if len(specs[0].Path) != 5 { // leaf→spine→root→spine→leaf
		t.Fatalf("path = %v", specs[0].Path)
	}
	// Missing spines rejected.
	bad, _ := Parse(strings.NewReader(`{"topology":"tree","hosts":{"a":0},
		"flows":[{"class":"TS","src":"a","dst":"a","period_us":1000}]}`))
	if _, _, err := bad.Build(); err == nil {
		t.Fatal("tree without spines accepted")
	}
}

// FuzzParse: no document makes Parse, Scenario or DeriveConfig panic.
// Documents that would build more than 64 switches (a tree: 8 spines
// of 8 leaves) or 4096 flows are skipped to keep an iteration cheap.
func FuzzParse(f *testing.F) {
	for _, doc := range []string{
		sampleDoc,
		`{"topology":"ring","hosts":{"0":0}}`,
		`{"topology":"tree","spines":1,"leaves":-1,"hosts":{"a":0},"flows":[{"class":"TS","src":"a","dst":"a","period_us":1000}]}`,
		`{"topology":"star","switches":1,"hosts":{"a":0}}`,
		`{"topology":"mesh","switches":4,"hosts":{"a":0}}`,
	} {
		f.Add([]byte(doc))
	}
	f.Fuzz(func(t *testing.T, doc []byte) {
		file, err := Parse(bytes.NewReader(doc))
		if err != nil || file.Switches > 64 || file.Spines > 8 || file.Leaves > 8 {
			return
		}
		flows := 0
		for _, e := range file.Flows {
			flows += max(e.Count, 1)
			if e.Count > 4096 || flows > 4096 {
				return
			}
		}
		sc, err := file.Scenario()
		if err != nil {
			return
		}
		_, _ = core.DeriveConfig(sc)
	})
}
