package tables

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
)

func TestUnicastResize(t *testing.T) {
	tbl := unicast(2)
	if err := tbl.Add(at(1, 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(at(2, 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Resize(1); err == nil {
		t.Fatal("shrink below occupancy accepted")
	}
	if err := tbl.Resize(-1); err == nil {
		t.Fatal("negative capacity accepted")
	}
	if err := tbl.Resize(3); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(at(3, 1), 0); err != nil {
		t.Fatalf("add after grow: %v", err)
	}
	if err := tbl.Add(at(4, 1), 0); err == nil {
		t.Fatal("add beyond new capacity accepted")
	}
}

func TestMulticastResize(t *testing.T) {
	tbl := multicast(1)
	if err := tbl.Add(7, 0b11); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Resize(0); err == nil {
		t.Fatal("shrink below occupancy accepted")
	}
	if err := tbl.Resize(2); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(8, 0b01); err != nil {
		t.Fatal(err)
	}
}

func TestClassResize(t *testing.T) {
	tbl := class(1)
	key := ClassKey{Src: ethernet.HostMAC(1), Dst: ethernet.HostMAC(2), VID: 1, PRI: 7}
	if err := tbl.Add(key, ClassEntry{QueueID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Resize(0); err == nil {
		t.Fatal("shrink below occupancy accepted")
	}
	if err := tbl.Resize(2); err != nil {
		t.Fatal(err)
	}
	key2 := key
	key2.VID = 2
	if err := tbl.Add(key2, ClassEntry{QueueID: 2}); err != nil {
		t.Fatal(err)
	}
}
