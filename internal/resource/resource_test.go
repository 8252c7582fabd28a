package resource

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// TestTableIIIExact verifies the model against every BRAM figure in the
// paper's Table III.
func TestTableIIIExact(t *testing.T) {
	type row struct {
		name string
		item Item
		want float64 // Kb
	}
	commercial := []row{
		{"switch", SwitchTbl(16*1024, 0), 1152},
		{"class", ClassTbl(1024), 126},
		{"meter", MeterTbl(512), 36},
		{"gate", GateTbl(2, 8, 4), 144},
		{"cbs", CBSTbl(8, 8, 4), 144},
		{"queues", Queues(16, 8, 4), 576},
		{"buffers", Buffers(128, 4), 8640},
	}
	star := []row{
		{"switch", SwitchTbl(1024, 0), 72},
		{"class", ClassTbl(1024), 126},
		{"meter", MeterTbl(1024), 72},
		{"gate", GateTbl(2, 8, 3), 108},
		{"cbs", CBSTbl(3, 3, 3), 108},
		{"queues", Queues(12, 8, 3), 432},
		{"buffers", Buffers(96, 3), 4860},
	}
	linear := []row{
		{"gate", GateTbl(2, 8, 2), 72},
		{"cbs", CBSTbl(3, 3, 2), 72},
		{"queues", Queues(12, 8, 2), 288},
		{"buffers", Buffers(96, 2), 3240},
	}
	ring := []row{
		{"gate", GateTbl(2, 8, 1), 36},
		{"cbs", CBSTbl(3, 3, 1), 36},
		{"queues", Queues(12, 8, 1), 144},
		{"buffers", Buffers(96, 1), 1620},
	}
	for _, group := range [][]row{commercial, star, linear, ring} {
		for _, r := range group {
			if got := r.item.Kb(); got != r.want {
				t.Errorf("%s %s: Kb = %v, want %v", r.item.Name, r.item.Params, got, r.want)
			}
		}
	}
}

func commercialReport() *Report {
	return &Report{Label: "Commercial (4 ports)", Items: []Item{
		SwitchTbl(16*1024, 0), ClassTbl(1024), MeterTbl(512),
		GateTbl(2, 8, 4), CBSTbl(8, 8, 4), Queues(16, 8, 4), Buffers(128, 4),
	}}
}

func customizedReport(ports int) *Report {
	return &Report{Label: "Customized", Items: []Item{
		SwitchTbl(1024, 0), ClassTbl(1024), MeterTbl(1024),
		GateTbl(2, 8, ports), CBSTbl(3, 3, ports), Queues(12, 8, ports), Buffers(96, ports),
	}}
}

// TestTableIIITotals verifies the column totals and headline reduction
// percentages (46.59%, 63.56%, 80.53%).
func TestTableIIITotals(t *testing.T) {
	base := commercialReport()
	if got := base.TotalKb(); got != 10818 {
		t.Fatalf("commercial total = %v, want 10818", got)
	}
	cases := []struct {
		ports     int
		total     float64
		reduction float64
	}{
		{3, 5778, 46.59},
		{2, 3942, 63.56},
		{1, 2106, 80.53},
	}
	for _, c := range cases {
		r := customizedReport(c.ports)
		if got := r.TotalKb(); got != c.total {
			t.Errorf("%d ports: total = %v, want %v", c.ports, got, c.total)
		}
		red := 100 * r.ReductionVs(base)
		if math.Abs(red-c.reduction) > 0.005 {
			t.Errorf("%d ports: reduction = %.2f%%, want %.2f%%", c.ports, red, c.reduction)
		}
	}
}

// TestTableIExact verifies the motivation study's two configurations:
// Case 1 (depth 16, 128 buffers) = 2304 Kb, Case 2 (depth 12, 96
// buffers) = 1764 Kb — a 540 Kb saving.
func TestTableIExact(t *testing.T) {
	case1 := Queues(16, 8, 1).Kb() + Buffers(128, 1).Kb()
	case2 := Queues(12, 8, 1).Kb() + Buffers(96, 1).Kb()
	if case1 != 2304 {
		t.Errorf("Case 1 = %v, want 2304", case1)
	}
	if case2 != 1764 {
		t.Errorf("Case 2 = %v, want 1764", case2)
	}
	if case1-case2 != 540 {
		t.Errorf("saving = %v, want 540", case1-case2)
	}
}

func TestZeroSizedTables(t *testing.T) {
	if SwitchTbl(0, 0).Bits != 0 {
		t.Error("empty switch table allocates BRAM")
	}
	if Buffers(0, 4).Bits != 0 {
		t.Error("zero buffers allocate BRAM")
	}
}

// TestBlocks: every table occupies whole 18 Kb blocks.
func TestBlocks(t *testing.T) {
	if got := ClassTbl(1024).Bits; got != 7*Block18Bits { // 126 Kb
		t.Fatalf("ClassTbl(1024) = %d bits, want 7 blocks", got)
	}
	if got := SwitchTbl(16*1024, 0).Bits; got != 64*Block18Bits {
		t.Fatalf("SwitchTbl(16K, 0) = %d bits, want 64 blocks", got)
	}
}

func TestCompactParams(t *testing.T) {
	if got := SwitchTbl(16*1024, 0).Params; got != "16K, 0" {
		t.Errorf("Params = %q, want \"16K, 0\"", got)
	}
	if got := ClassTbl(1000).Params; got != "1000" {
		t.Errorf("Params = %q", got)
	}
}

func TestReportString(t *testing.T) {
	r := commercialReport()
	s := r.String()
	for _, want := range []string{"Switch Tbl", "Buffers", "Total", "10818Kb"} {
		if !strings.Contains(s, want) {
			t.Errorf("report missing %q:\n%s", want, s)
		}
	}
}

func TestReductionVsZeroBaseline(t *testing.T) {
	empty := &Report{}
	if (&Report{}).ReductionVs(empty) != 0 {
		t.Error("zero baseline should yield 0")
	}
}

// Property: BRAM never decreases when a table grows, and is always a
// whole number of 18 Kb blocks.
func TestMonotoneQuantizedProperty(t *testing.T) {
	prop := func(a, b uint16) bool {
		x, y := int(a%8192), int(b%8192)
		if x > y {
			x, y = y, x
		}
		small, large := ClassTbl(x), ClassTbl(y)
		if small.Bits > large.Bits {
			return false
		}
		return small.Bits%Block18Bits == 0 && large.Bits%Block18Bits == 0
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: per-port resources scale linearly with port count.
func TestPortLinearityProperty(t *testing.T) {
	prop := func(portsRaw uint8) bool {
		ports := int(portsRaw%8) + 1
		if GateTbl(2, 8, ports).Bits != int64(ports)*GateTbl(2, 8, 1).Bits {
			return false
		}
		if Queues(12, 8, ports).Bits != int64(ports)*Queues(12, 8, 1).Bits {
			return false
		}
		return Buffers(96, ports).Bits == int64(ports)*Buffers(96, 1).Bits
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestFRERTbl(t *testing.T) {
	// 32 streams × (48+32)b = 2560 bits → one 18 Kb block.
	it := FRERTbl(32, 32)
	if it.Bits != Block18Bits {
		t.Fatalf("FRERTbl(32,32) = %d bits, want one 18Kb block", it.Bits)
	}
	if it.Width != "80b" || it.Params != "32, 32" {
		t.Fatalf("FRERTbl row = %q %q", it.Width, it.Params)
	}
	// 1024 streams × (48+64)b = 114688 bits → ceil(/18Kb) = 7 blocks.
	it = FRERTbl(1024, 64)
	if it.Bits != 7*Block18Bits {
		t.Fatalf("FRERTbl(1024,64) = %d bits, want 7 blocks", it.Bits)
	}
	if it.Params != "1K, 64" {
		t.Fatalf("compact params = %q", it.Params)
	}
	if FRERTbl(0, 32).Bits != 0 {
		t.Fatal("zero-sized FRER table costs BRAM")
	}
}
