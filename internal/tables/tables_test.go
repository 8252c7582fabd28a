package tables

import (
	"errors"
	"runtime"
	"testing"
	"testing/quick"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/israce"
)

// The three instantiations, as forward and filter make them.
func unicast(n int) *Table[UnicastKey, int]    { return New[UnicastKey, int]("unicast", n) }
func multicast(n int) *Table[uint16, uint32]   { return New[uint16, uint32]("multicast", n) }
func class(n int) *Table[ClassKey, ClassEntry] { return New[ClassKey, ClassEntry]("classification", n) }

// at is host h's unicast key in VLAN vid.
func at(h int, vid uint16) UnicastKey { return UnicastKey{ethernet.HostMAC(h), vid} }

func TestUnicastAddLookup(t *testing.T) {
	tbl := unicast(4)
	if err := tbl.Add(at(1, 100), 2); err != nil {
		t.Fatal(err)
	}
	port, ok := tbl.Lookup(at(1, 100))
	if !ok || port != 2 {
		t.Fatalf("Lookup = (%d,%v)", port, ok)
	}
	// Same MAC, different VID is a distinct key.
	if _, ok := tbl.Lookup(at(1, 101)); ok {
		t.Fatal("lookup with wrong VID hit")
	}
}

func TestUnicastCapacity(t *testing.T) {
	tbl := unicast(2)
	if err := tbl.Add(at(1, 1), 0); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(at(2, 1), 0); err != nil {
		t.Fatal(err)
	}
	err := tbl.Add(at(3, 1), 0)
	if !errors.Is(err, ErrTableFull) {
		t.Fatalf("overflow err = %v, want ErrTableFull", err)
	}
	// Overwrite of an existing key must still succeed.
	if err := tbl.Add(at(2, 1), 3); err != nil {
		t.Fatalf("overwrite failed: %v", err)
	}
	if port, _ := tbl.Lookup(at(2, 1)); port != 3 {
		t.Fatal("overwrite not applied")
	}
	if tbl.Len() != 2 {
		t.Fatalf("Len = %d, want 2", tbl.Len())
	}
}

func TestMulticast(t *testing.T) {
	tbl := multicast(2)
	if err := tbl.Add(7, 0b1010); err != nil {
		t.Fatal(err)
	}
	mask, ok := tbl.Lookup(7)
	if !ok || mask != 0b1010 {
		t.Fatalf("Lookup = (%b,%v)", mask, ok)
	}
	if _, ok := tbl.Lookup(8); ok {
		t.Fatal("missing MC ID hit")
	}
}

func TestMulticastZeroCapacity(t *testing.T) {
	// The paper's customized switches allocate no multicast table.
	tbl := multicast(0)
	if err := tbl.Add(1, 1); !errors.Is(err, ErrTableFull) {
		t.Fatalf("zero-capacity add err = %v", err)
	}
	if tbl.Capacity() != 0 {
		t.Fatal("capacity not 0")
	}
}

func TestClassTable(t *testing.T) {
	tbl := class(8)
	k := ClassKey{Src: ethernet.HostMAC(1), Dst: ethernet.HostMAC(2), VID: 10, PRI: 7}
	e := ClassEntry{MeterID: 3, QueueID: 7, HasMeter: true}
	if err := tbl.Add(k, e); err != nil {
		t.Fatal(err)
	}
	got, ok := tbl.Lookup(k)
	if !ok || got != e {
		t.Fatalf("Lookup = (%+v,%v)", got, ok)
	}
	// PRI participates in the key.
	k2 := k
	k2.PRI = 5
	if _, ok := tbl.Lookup(k2); ok {
		t.Fatal("lookup with wrong PRI hit")
	}
}

func TestClassCapacity(t *testing.T) {
	tbl := class(1)
	k1 := ClassKey{VID: 1}
	k2 := ClassKey{VID: 2}
	if err := tbl.Add(k1, ClassEntry{}); err != nil {
		t.Fatal(err)
	}
	if err := tbl.Add(k2, ClassEntry{}); !errors.Is(err, ErrTableFull) {
		t.Fatalf("err = %v", err)
	}
}

func TestKeyFor(t *testing.T) {
	f := &ethernet.Frame{
		Src: ethernet.HostMAC(1), Dst: ethernet.HostMAC(2),
		VID: 55, PCP: 6,
	}
	k := KeyFor(f)
	want := ClassKey{Src: f.Src, Dst: f.Dst, VID: 55, PRI: 6}
	if k != want {
		t.Fatalf("KeyFor = %+v", k)
	}
}

func TestNegativeCapacityPanics(t *testing.T) {
	for name, fn := range map[string]func(){
		"unicast":   func() { unicast(-1) },
		"multicast": func() { multicast(-1) },
		"class":     func() { class(-1) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: negative capacity did not panic", name)
				}
			}()
			fn()
		}()
	}
}

// Property: a unicast table never holds more entries than its capacity,
// and every successful Add is subsequently visible.
func TestUnicastCapacityProperty(t *testing.T) {
	prop := func(ids []uint16, capRaw uint8) bool {
		capacity := int(capRaw%32) + 1
		tbl := unicast(capacity)
		for _, id := range ids {
			mac := ethernet.HostMAC(int(id % 64))
			err := tbl.Add(UnicastKey{mac, 1}, int(id))
			if err == nil {
				if port, ok := tbl.Lookup(UnicastKey{mac, 1}); !ok || port != int(id) {
					return false
				}
			}
			if tbl.Len() > capacity {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// TestReserveThenAddAllocatesNothing: an empty table reserved for n
// entries installs them without growing its storage, and a reservation
// past the capacity changes nothing about what fits.
func TestReserveThenAddAllocatesNothing(t *testing.T) {
	if israce.Enabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const n = 512
	uni, cls := unicast(n), class(n)
	uni.Reserve(n)
	cls.Reserve(n)
	// ReadMemStats stops the world; restarting it with idle Ps may start
	// an OS thread, and a GC cycle in flight may contend for the stop.
	// Both allocate in the runtime, so the window runs on one P right
	// after a GC, as testing.AllocsPerRun runs on one P.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	runtime.GC()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		mac := ethernet.HostMAC(i)
		if uni.Add(UnicastKey{mac, 1}, 2) != nil || cls.Add(ClassKey{Dst: mac, VID: 1}, ClassEntry{QueueID: 7}) != nil {
			t.Fatal("a reserved entry did not fit")
		}
	}
	runtime.ReadMemStats(&after)
	if grown := after.Mallocs - before.Mallocs; grown != 0 {
		t.Fatalf("installing %d reserved entries in two tables allocated %d times, want 0", n, grown)
	}
	small := unicast(1)
	small.Reserve(10)
	if small.Add(at(1, 1), 0) != nil || small.Add(at(2, 1), 0) == nil {
		t.Fatal("Reserve changed the table's capacity")
	}
}
