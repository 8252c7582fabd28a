package meter

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
)

// used counts the configured meters.
func used(t *Table) int {
	n := 0
	for _, u := range t.inUse {
		if u {
			n++
		}
	}
	return n
}

func TestRequiredCapacity(t *testing.T) {
	tbl := NewTable(8)
	if got := tbl.RequiredCapacity(); got != 0 {
		t.Fatalf("empty table requires %d", got)
	}
	if err := tbl.Configure(5, ethernet.Mbps, 1500); err != nil {
		t.Fatal(err)
	}
	if got := tbl.RequiredCapacity(); got != 6 {
		t.Fatalf("required = %d, want 6 (highest id 5)", got)
	}
	if got := used(tbl); got != 1 {
		t.Fatalf("used = %d", got)
	}
}

func TestMeterResize(t *testing.T) {
	tbl := NewTable(8)
	if err := tbl.Configure(5, ethernet.Mbps, 1500); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Resize(5); err == nil {
		t.Fatal("shrink below configured meter accepted")
	}
	if err := tbl.Resize(6); err != nil {
		t.Fatal(err)
	}
	if tbl.Capacity() != 6 {
		t.Fatalf("capacity = %d", tbl.Capacity())
	}
	// Meter 5's state survives the resize.
	if !tbl.Conform(5, 0, 100) {
		t.Fatal("configured meter lost its token bucket")
	}
	// Grow after shrink: new ids start clean, no stale inUse bits.
	if err := tbl.Resize(8); err != nil {
		t.Fatal(err)
	}
	if got := used(tbl); got != 1 {
		t.Fatalf("used after grow = %d", got)
	}
	if err := tbl.Configure(7, ethernet.Mbps, 1500); err != nil {
		t.Fatal(err)
	}
}
