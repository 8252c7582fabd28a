package tables

import (
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
)

// The three concrete tables Table replaced, kept verbatim as the
// oracle TestTableMatchesReference drives beside it, less the lookup
// and miss counts that Table no longer keeps.

// UnicastTable maps (Dst MAC, VID) to an output port.
type UnicastTable struct {
	capacity int
	entries  map[UnicastKey]int
}

// NewUnicast returns a unicast table with the given capacity.
func NewUnicast(capacity int) *UnicastTable {
	if capacity < 0 {
		panic("tables: negative capacity")
	}
	return &UnicastTable{capacity: capacity, entries: make(map[UnicastKey]int)}
}

// Capacity returns the configured entry budget.
func (t *UnicastTable) Capacity() int { return t.capacity }

// Len returns the number of installed entries.
func (t *UnicastTable) Len() int { return len(t.entries) }

// Reserve sizes an empty table's storage for n entries (at most its
// capacity), so installing them grows nothing.
func (t *UnicastTable) Reserve(n int) {
	if len(t.entries) == 0 {
		t.entries = make(map[UnicastKey]int, min(n, t.capacity))
	}
}

// Add installs dst/vid -> outPort. Overwriting an existing key does not
// consume capacity.
func (t *UnicastTable) Add(dst ethernet.MAC, vid uint16, outPort int) error {
	k := UnicastKey{Dst: dst, VID: vid}
	if _, ok := t.entries[k]; !ok && len(t.entries) >= t.capacity {
		return fmt.Errorf("%w: unicast capacity %d", ErrTableFull, t.capacity)
	}
	t.entries[k] = outPort
	return nil
}

// Lookup resolves the output port for dst/vid.
func (t *UnicastTable) Lookup(dst ethernet.MAC, vid uint16) (outPort int, ok bool) {
	outPort, ok = t.entries[UnicastKey{Dst: dst, VID: vid}]
	return outPort, ok
}

// Resize changes the entry budget in place — the live-reconfiguration
// primitive behind set_switch_tbl. Installed entries survive; shrinking
// below the live occupancy fails.
func (t *UnicastTable) Resize(capacity int) error {
	if capacity < 0 {
		return fmt.Errorf("tables: negative unicast capacity %d", capacity)
	}
	if len(t.entries) > capacity {
		return fmt.Errorf("tables: cannot shrink unicast table to %d: %d entries installed",
			capacity, len(t.entries))
	}
	t.capacity = capacity
	return nil
}

// MulticastTable maps a multicast index (MC ID) to a set of output
// ports, represented as a bitmask.
type MulticastTable struct {
	capacity int
	entries  map[uint16]uint32
}

// NewMulticast returns a multicast table with the given capacity.
// Capacity zero is valid: the paper's customized switches split
// multicast flows into unicast flows and allocate no multicast table.
func NewMulticast(capacity int) *MulticastTable {
	if capacity < 0 {
		panic("tables: negative capacity")
	}
	return &MulticastTable{capacity: capacity, entries: make(map[uint16]uint32)}
}

// Capacity returns the configured entry budget.
func (t *MulticastTable) Capacity() int { return t.capacity }

// Len returns the number of installed entries.
func (t *MulticastTable) Len() int { return len(t.entries) }

// Add installs mcID -> port bitmask.
func (t *MulticastTable) Add(mcID uint16, portMask uint32) error {
	if _, ok := t.entries[mcID]; !ok && len(t.entries) >= t.capacity {
		return fmt.Errorf("%w: multicast capacity %d", ErrTableFull, t.capacity)
	}
	t.entries[mcID] = portMask
	return nil
}

// Lookup resolves the output port set for mcID.
func (t *MulticastTable) Lookup(mcID uint16) (portMask uint32, ok bool) {
	portMask, ok = t.entries[mcID]
	return portMask, ok
}

// Resize changes the entry budget in place; shrinking below the live
// occupancy fails.
func (t *MulticastTable) Resize(capacity int) error {
	if capacity < 0 {
		return fmt.Errorf("tables: negative multicast capacity %d", capacity)
	}
	if len(t.entries) > capacity {
		return fmt.Errorf("tables: cannot shrink multicast table to %d: %d entries installed",
			capacity, len(t.entries))
	}
	t.capacity = capacity
	return nil
}

// ClassTable is the Ingress Filter's classification table.
type ClassTable struct {
	capacity int
	entries  map[ClassKey]ClassEntry
}

// NewClass returns a classification table with the given capacity.
func NewClass(capacity int) *ClassTable {
	if capacity < 0 {
		panic("tables: negative capacity")
	}
	return &ClassTable{capacity: capacity, entries: make(map[ClassKey]ClassEntry)}
}

// Capacity returns the configured entry budget.
func (t *ClassTable) Capacity() int { return t.capacity }

// Len returns the number of installed entries.
func (t *ClassTable) Len() int { return len(t.entries) }

// Reserve sizes an empty table's storage for n entries (at most its
// capacity), so installing them grows nothing.
func (t *ClassTable) Reserve(n int) {
	if len(t.entries) == 0 {
		t.entries = make(map[ClassKey]ClassEntry, min(n, t.capacity))
	}
}

// Add installs a classification entry.
func (t *ClassTable) Add(k ClassKey, e ClassEntry) error {
	if _, ok := t.entries[k]; !ok && len(t.entries) >= t.capacity {
		return fmt.Errorf("%w: classification capacity %d", ErrTableFull, t.capacity)
	}
	t.entries[k] = e
	return nil
}

// Lookup classifies a header tuple.
func (t *ClassTable) Lookup(k ClassKey) (ClassEntry, bool) {
	e, ok := t.entries[k]
	return e, ok
}

// Resize changes the entry budget in place — the live-reconfiguration
// primitive behind set_class_tbl. Installed entries survive; shrinking
// below the live occupancy fails.
func (t *ClassTable) Resize(capacity int) error {
	if capacity < 0 {
		return fmt.Errorf("tables: negative classification capacity %d", capacity)
	}
	if len(t.entries) > capacity {
		return fmt.Errorf("tables: cannot shrink classification table to %d: %d entries installed",
			capacity, len(t.entries))
	}
	t.capacity = capacity
	return nil
}

// reference is one concrete table's methods in Table's shape; reserve
// is nil for the multicast table, which had none.
type reference[K comparable, V any] struct {
	add           func(K, V) error
	lookup        func(K) (V, bool)
	resize        func(int) error
	reserve       func(int)
	len, capacity func() int
}

// TestTableMatchesReference drives each instantiation of Table and the
// concrete table it replaced with the same seeded Add/Lookup/Resize/
// Reserve script, over a key space larger than the capacities, and
// requires the same results, error texts, Len and Capacity after every
// step.
func TestTableMatchesReference(t *testing.T) {
	for seed := int64(1); seed <= 16; seed++ {
		n := int(seed % 5)
		u, m, c := NewUnicast(n), NewMulticast(n), NewClass(n)
		drive(t, seed, unicast(n), reference[UnicastKey, int]{
			add:    func(k UnicastKey, v int) error { return u.Add(k.Dst, k.VID, v) },
			lookup: func(k UnicastKey) (int, bool) { return u.Lookup(k.Dst, k.VID) },
			resize: u.Resize, reserve: u.Reserve, len: u.Len, capacity: u.Capacity,
		}, func(i int) UnicastKey { return at(i%4, uint16(i/4)) }, func(x int) int { return x % 32 })
		drive(t, seed, multicast(n), reference[uint16, uint32]{
			add: m.Add, lookup: m.Lookup, resize: m.Resize, len: m.Len, capacity: m.Capacity,
		}, func(i int) uint16 { return uint16(i) }, func(x int) uint32 { return uint32(x) })
		drive(t, seed, class(n), reference[ClassKey, ClassEntry]{
			add: c.Add, lookup: c.Lookup, resize: c.Resize, reserve: c.Reserve, len: c.Len, capacity: c.Capacity,
		}, func(i int) ClassKey {
			return ClassKey{Src: ethernet.HostMAC(i % 3), Dst: ethernet.HostMAC(i / 3), VID: 1, PRI: uint8(i % 2)}
		}, func(x int) ClassEntry { return ClassEntry{MeterID: x % 4, QueueID: x % 8, HasMeter: x%2 == 0} })
	}
}

func drive[K comparable, V any](t *testing.T, seed int64, got *Table[K, V], ref reference[K, V], key func(int) K, val func(int) V) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	text := func(err error) string { return fmt.Sprint(err, errors.Is(err, ErrTableFull)) }
	for step := 0; step < 400; step++ {
		var g, r string
		switch op := rng.Intn(8); {
		case op < 4:
			k, v := key(rng.Intn(12)), val(rng.Int())
			g, r = text(got.Add(k, v)), text(ref.add(k, v))
		case op < 6:
			k := key(rng.Intn(12))
			gv, gok := got.Lookup(k)
			rv, rok := ref.lookup(k)
			g, r = fmt.Sprint(gv, gok), fmt.Sprint(rv, rok)
		case op < 7:
			n := rng.Intn(10) - 1
			g, r = text(got.Resize(n)), text(ref.resize(n))
		case ref.reserve != nil:
			n := rng.Intn(10)
			got.Reserve(n)
			ref.reserve(n)
		}
		if g != r {
			t.Fatalf("%s seed %d step %d: got %q, reference %q", got.name, seed, step, g, r)
		}
		if got.Len() != ref.len() || got.Capacity() != ref.capacity() {
			t.Fatalf("%s seed %d step %d: Len/Capacity %d/%d, reference %d/%d",
				got.name, seed, step, got.Len(), got.Capacity(), ref.len(), ref.capacity())
		}
	}
}
