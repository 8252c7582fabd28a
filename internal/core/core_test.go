package core

import (
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/flows"
	"github.com/tsnbuilder/tsnbuilder/internal/israce"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

func buildPaper(ports int, t *testing.T) *Design {
	t.Helper()
	d, err := BuilderFor(PaperCustomizedConfig(ports), nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	return d
}

func TestCommercialProfileMatchesTableIII(t *testing.T) {
	d, err := BuilderFor(CommercialProfile(), nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Report.TotalKb(); got != 10818 {
		t.Fatalf("commercial BRAM = %v Kb, want 10818", got)
	}
}

func TestCustomizedColumnsMatchTableIII(t *testing.T) {
	base, _ := BuilderFor(CommercialProfile(), nil).Build()
	cases := []struct {
		ports int
		total float64
	}{
		{3, 5778}, {2, 3942}, {1, 2106},
	}
	for _, c := range cases {
		d := buildPaper(c.ports, t)
		if got := d.Report.TotalKb(); got != c.total {
			t.Errorf("%d ports: %v Kb, want %v", c.ports, got, c.total)
		}
		_ = base
	}
}

func TestBuilderAPIChaining(t *testing.T) {
	d, err := NewBuilder(nil).
		SetSwitchTbl(1024, 0).
		SetClassTbl(1024).
		SetMeterTbl(1024).
		SetGateTbl(2, 8, 1).
		SetCBSTbl(3, 3, 1).
		SetQueues(12, 8, 1).
		SetBuffers(96, 1).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if got := d.Report.TotalKb(); got != 2106 {
		t.Fatalf("ring column = %v Kb, want 2106", got)
	}
	if len(d.Templates) != 5 {
		t.Fatalf("templates = %v", d.Templates)
	}
}

func TestBuilderDetectsPortConflict(t *testing.T) {
	_, err := NewBuilder(nil).
		SetSwitchTbl(64, 0).
		SetClassTbl(64).
		SetMeterTbl(64).
		SetGateTbl(2, 8, 4).
		SetCBSTbl(3, 3, 2). // conflicting port_num
		SetQueues(12, 8, 4).
		SetBuffers(96, 4).
		Build()
	if err == nil || !strings.Contains(err.Error(), "port_num") {
		t.Fatalf("port conflict not detected: %v", err)
	}
}

func TestBuilderDetectsQueueConflict(t *testing.T) {
	_, err := NewBuilder(nil).
		SetSwitchTbl(64, 0).
		SetClassTbl(64).
		SetMeterTbl(64).
		SetGateTbl(2, 8, 1).
		SetCBSTbl(3, 3, 1).
		SetQueues(12, 4, 1). // conflicting queue_num
		SetBuffers(96, 1).
		Build()
	if err == nil || !strings.Contains(err.Error(), "queue_num") {
		t.Fatalf("queue conflict not detected: %v", err)
	}
}

func TestBuilderMissingAPI(t *testing.T) {
	_, err := NewBuilder(nil).SetSwitchTbl(64, 0).Build()
	if err == nil || !strings.Contains(err.Error(), "never called") {
		t.Fatalf("missing APIs not detected: %v", err)
	}
}

func TestBuilderTemplateSelection(t *testing.T) {
	// A design without Egress Sched does not need set_cbs_tbl…
	_, err := NewBuilder(nil).
		Select(TemplatePacketSwitch, TemplateIngressFilter, TemplateGateCtrl, TemplateTimeSync).
		SetSwitchTbl(64, 0).
		SetClassTbl(64).
		SetMeterTbl(64).
		SetGateTbl(2, 8, 1).
		SetQueues(12, 8, 1).
		SetBuffers(96, 1).
		Build()
	if err != nil {
		t.Fatalf("reduced design failed: %v", err)
	}
	// …but calling it then is an error.
	_, err = NewBuilder(nil).
		Select(TemplatePacketSwitch).
		SetSwitchTbl(64, 0).
		SetCBSTbl(3, 3, 1).
		Build()
	if err == nil || !strings.Contains(err.Error(), "not selected") {
		t.Fatalf("unselected template API not detected: %v", err)
	}
}

func TestBuilderRejectsBadValues(t *testing.T) {
	_, err := NewBuilder(nil).
		SetSwitchTbl(-1, 0).
		SetClassTbl(-5).
		SetMeterTbl(-2).
		SetGateTbl(1, 99, 0).
		SetCBSTbl(-1, -1, 1).
		SetQueues(0, 8, 1).
		SetBuffers(0, 1).
		SetTiming(0, 0).
		Build()
	if err == nil {
		t.Fatal("invalid values accepted")
	}
	for _, frag := range []string{"set_switch_tbl", "set_class_tbl", "set_meter_tbl",
		"gate_size", "queue_num", "set_cbs_tbl", "set_queues", "set_buffers", "SetTiming"} {
		if !strings.Contains(err.Error(), frag) {
			t.Errorf("error misses %q: %v", frag, err)
		}
	}
}

func TestSwitchConfigMaterialization(t *testing.T) {
	d := buildPaper(1, t)
	sc := d.SwitchConfig(3, 4)
	if sc.ID != 3 || sc.Ports != 4 {
		t.Fatalf("cfg = %+v", sc)
	}
	if sc.TSQueueA != 7 || sc.TSQueueB != 6 {
		t.Fatalf("TS queues = %d,%d", sc.TSQueueA, sc.TSQueueB)
	}
	if err := sc.Validate(); err != nil {
		t.Fatal(err)
	}
	// Ports below the design's PortNum are raised to it.
	if d.SwitchConfig(0, 0).Ports != 1 {
		t.Fatal("ports not clamped to PortNum")
	}
}

func TestDeriveConfigRing(t *testing.T) {
	topo := topology.Ring(6)
	for h := 0; h < 6; h++ {
		topo.AttachHost(100+h, h)
	}
	specs := flows.GenerateTS(flows.TSParams{
		Count:    1024,
		Period:   10 * sim.Millisecond,
		WireSize: 64,
		VID:      1,
		Hosts: func(i int) (int, int) {
			src := 100 + i%6
			dst := 100 + (i+1+i%4)%6
			return src, dst
		},
		Seed: 3,
	})
	if err := BindPaths(topo, specs); err != nil {
		t.Fatal(err)
	}
	der, err := DeriveConfig(Scenario{Topo: topo, Flows: specs})
	if err != nil {
		t.Fatal(err)
	}
	cfg := der.Config
	if cfg.UnicastSize != 1024 || cfg.ClassSize != 1024 || cfg.MeterSize != 1024 {
		t.Fatalf("table sizes = %d/%d/%d", cfg.UnicastSize, cfg.ClassSize, cfg.MeterSize)
	}
	if cfg.GateSize != 2 || cfg.PortNum != 1 || cfg.QueueNum != 8 {
		t.Fatalf("gate/port/queue = %d/%d/%d", cfg.GateSize, cfg.PortNum, cfg.QueueNum)
	}
	if cfg.CBSMapSize != 3 || cfg.CBSSize != 3 {
		t.Fatalf("cbs = %d/%d", cfg.CBSMapSize, cfg.CBSSize)
	}
	// Depth = ITP occupancy + 50% margin; buffers = depth × queues.
	if cfg.QueueDepth < der.Plan.MaxOccupancy || cfg.BufferNum != cfg.QueueDepth*cfg.QueueNum {
		t.Fatalf("depth=%d occupancy=%d buffers=%d", cfg.QueueDepth, der.Plan.MaxOccupancy, cfg.BufferNum)
	}
	// The derived design must be buildable and cheaper than commercial.
	d, err := BuilderFor(cfg, nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	base, _ := BuilderFor(CommercialProfile(), nil).Build()
	if d.Report.ReductionVs(base.Report) <= 0.5 {
		t.Fatalf("derived ring design saves only %.1f%%", 100*d.Report.ReductionVs(base.Report))
	}
}

func TestDeriveConfigErrors(t *testing.T) {
	if _, err := DeriveConfig(Scenario{}); err == nil {
		t.Error("empty scenario accepted")
	}
	topo := topology.Ring(3)
	if _, err := DeriveConfig(Scenario{Topo: topo}); err == nil {
		t.Error("scenario without flows accepted")
	}
	spec := &flows.Spec{ID: 1, Class: ethernet.ClassTS, WireSize: 64, Period: sim.Millisecond}
	if _, err := DeriveConfig(Scenario{Topo: topo, Flows: []*flows.Spec{spec}}); err == nil {
		t.Error("flow without path accepted")
	}
}

func TestBindPathsErrors(t *testing.T) {
	topo := topology.Ring(3)
	spec := &flows.Spec{ID: 1, SrcHost: 1, DstHost: 2}
	if err := BindPaths(topo, []*flows.Spec{spec}); err == nil {
		t.Error("unattached hosts accepted")
	}
}

// TestBindPathsAllocs: the router keeps its searches and paths in a few
// arenas, so binding a workload's flows on a 14-switch ring — every
// switch a source — costs a handful of allocations whatever the flow
// count.
func TestBindPathsAllocs(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are meaningless under the race detector")
	}
	for _, nFlows := range []int{64, 440} {
		topo := topology.Ring(14)
		for h := 0; h < topo.N; h++ {
			topo.AttachHost(100+h, h)
		}
		specs := flows.GenerateTS(flows.TSParams{
			Count: nFlows, Period: 10 * sim.Millisecond, WireSize: 200, VID: 1,
			Hosts: func(i int) (int, int) { return 100 + i%14, 100 + (i%14+2)%14 },
			Seed:  uint64(nFlows),
		})
		allocs := testing.AllocsPerRun(20, func() {
			if err := BindPaths(topo, specs); err != nil {
				t.Fatal(err)
			}
		})
		if allocs > 8 {
			t.Errorf("BindPaths allocates %v times for %d flows, want at most 8", allocs, nFlows)
		}
		t.Logf("%d flows: %v allocations per BindPaths", nFlows, allocs)
	}
}

func TestASICPlatform(t *testing.T) {
	cfg := PaperCustomizedConfig(1)
	fpga, _ := BuilderFor(cfg, FPGA{}).Build()
	asic, _ := BuilderFor(cfg, ASIC{}).Build()
	if asic.Platform.Name() != "asic-sram" || fpga.Platform.Name() != "fpga-bram" {
		t.Fatal("platform names wrong")
	}
	// Same parameters, different cost: SRAM avoids block quantization,
	// so the ASIC total must be below the FPGA total.
	if asic.Report.TotalBits() >= fpga.Report.TotalBits() {
		t.Fatalf("ASIC %v >= FPGA %v", asic.Report.TotalKb(), fpga.Report.TotalKb())
	}
	if asic.Report.TotalBits() <= 0 {
		t.Fatal("ASIC cost empty")
	}
}

func TestTemplateMetadata(t *testing.T) {
	if len(AllTemplates()) != 5 {
		t.Fatal("not five templates")
	}
	for _, tmpl := range AllTemplates() {
		if tmpl.String() == "" || len(tmpl.Submodules()) == 0 {
			t.Fatalf("template %d missing metadata", tmpl)
		}
	}
	if Template(9).String() != "Template(9)" || Template(9).Submodules() != nil {
		t.Fatal("unknown template formatting")
	}
}
