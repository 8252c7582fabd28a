package forward

import (
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
)

func TestResolveUnicast(t *testing.T) {
	e := New(16, 4)
	if err := e.Unicast.Add(ethernet.HostMAC(1), 10, 2); err != nil {
		t.Fatal(err)
	}
	f := &ethernet.Frame{Dst: ethernet.HostMAC(1), VID: 10}
	ports, ok := e.Resolve(f)
	if !ok || ports != 1<<2 {
		t.Fatalf("Resolve = (%#b,%v)", ports, ok)
	}
}

func TestResolveUnicastPortOutsideMask(t *testing.T) {
	e := New(16, 4)
	for vid, port := range []int{-1, 32} {
		if err := e.Unicast.Add(ethernet.HostMAC(1), uint16(vid), port); err != nil {
			t.Fatal(err)
		}
		if ports, ok := e.Resolve(&ethernet.Frame{Dst: ethernet.HostMAC(1), VID: uint16(vid)}); ok {
			t.Fatalf("port %d resolved to mask %#b", port, ports)
		}
	}
}

func TestResolveMiss(t *testing.T) {
	e := New(16, 4)
	f := &ethernet.Frame{Dst: ethernet.HostMAC(9), VID: 1}
	if _, ok := e.Resolve(f); ok {
		t.Fatal("miss resolved")
	}
}

// group returns the multicast address of group id, the form MCID reads.
func group(id int) ethernet.MAC {
	return ethernet.MAC{0x01, 0x00, 0x5e, byte(id >> 16), byte(id >> 8), byte(id)}
}

func TestResolveMulticast(t *testing.T) {
	e := New(16, 4)
	grp := group(300)
	if err := e.Multicast.Add(MCID(grp), 0b1101); err != nil {
		t.Fatal(err)
	}
	ports, ok := e.Resolve(&ethernet.Frame{Dst: grp})
	if !ok {
		t.Fatal("multicast miss")
	}
	if ports != 0b1101 {
		t.Fatalf("ports = %#b, want 0b1101", ports)
	}
}

func TestResolveMulticastMiss(t *testing.T) {
	e := New(16, 4)
	if _, ok := e.Resolve(&ethernet.Frame{Dst: group(7)}); ok {
		t.Fatal("multicast miss resolved")
	}
}

func TestMCIDDerivation(t *testing.T) {
	if MCID(group(0x1234)) != 0x1234 {
		t.Fatalf("MCID = %x", MCID(group(0x1234)))
	}
}

func TestZeroMulticastTable(t *testing.T) {
	// Customized switches split multicast into unicast and run with a
	// zero-entry multicast table.
	e := New(16, 0)
	if _, ok := e.Resolve(&ethernet.Frame{Dst: group(1)}); ok {
		t.Fatal("zero-capacity multicast resolved")
	}
}
