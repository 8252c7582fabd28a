// Package tables implements the capacity-bounded lookup tables of the
// paper's resource view (Fig. 4): the unicast and multicast switch
// tables consulted by the Packet Switch template and the classification
// table consulted by the Ingress Filter template.
//
// Every table has a fixed capacity set through the TSN-Builder
// customization APIs; inserting beyond capacity fails with ErrTableFull
// exactly as a full hardware table would reject a control-plane write.
package tables

import (
	"errors"
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
)

// ErrTableFull is returned when an insert exceeds the configured
// capacity.
var ErrTableFull = errors.New("tables: table full")

// UnicastKey is the switch-table key: destination MAC + VLAN ID
// (Fig. 4 "Dst MAC, VID").
type UnicastKey struct {
	Dst ethernet.MAC
	VID uint16
}

// UnicastTable maps (Dst MAC, VID) to an output port.
type UnicastTable struct {
	capacity int
	entries  map[UnicastKey]int
	// lookups/misses are observability counters for the experiments.
	lookups uint64
	misses  uint64
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
	t.lookups++
	outPort, ok = t.entries[UnicastKey{Dst: dst, VID: vid}]
	if !ok {
		t.misses++
	}
	return outPort, ok
}

// Stats returns (lookups, misses).
func (t *UnicastTable) Stats() (uint64, uint64) { return t.lookups, t.misses }

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

// ClassKey is the classification-table key from Fig. 4: the combination
// of Src MAC, Dst MAC, VID and PRI carried in the packet header.
type ClassKey struct {
	Src ethernet.MAC
	Dst ethernet.MAC
	VID uint16
	PRI uint8
}

// ClassEntry is the classification result: which meter polices the flow
// and which queue it joins (Fig. 4 "Meter ID, Queue ID").
type ClassEntry struct {
	MeterID int
	QueueID int
	// HasMeter distinguishes unmetered entries (TS flows are gate-
	// controlled, not rate-policed).
	HasMeter bool
}

// ClassTable is the Ingress Filter's classification table.
type ClassTable struct {
	capacity int
	entries  map[ClassKey]ClassEntry
	lookups  uint64
	misses   uint64
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
	t.lookups++
	e, ok := t.entries[k]
	if !ok {
		t.misses++
	}
	return e, ok
}

// KeyFor extracts the classification key from a frame.
func KeyFor(f *ethernet.Frame) ClassKey {
	return ClassKey{Src: f.Src, Dst: f.Dst, VID: f.VID, PRI: f.PCP}
}

// Stats returns (lookups, misses).
func (t *ClassTable) Stats() (uint64, uint64) { return t.lookups, t.misses }

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
