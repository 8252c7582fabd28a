// Package tables implements the capacity-bounded lookup tables of the
// paper's resource view (Fig. 4): the unicast and multicast switch
// tables consulted by the Packet Switch template and the classification
// table consulted by the Ingress Filter template. All three are one
// Table, instantiated with their key and value types.
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

// KeyFor extracts the classification key from a frame.
func KeyFor(f *ethernet.Frame) ClassKey {
	return ClassKey{Src: f.Src, Dst: f.Dst, VID: f.VID, PRI: f.PCP}
}

// Table maps keys to values within a capacity: the unicast table
// (UnicastKey to an output port), the multicast table (MC ID to a port
// bitmask) and the classification table (ClassKey to a ClassEntry).
type Table[K comparable, V any] struct {
	// name is the word the table's errors use ("unicast", ...).
	name     string
	capacity int
	entries  map[K]V
}

// New returns a table with the given capacity whose errors call it
// name. Capacity zero is valid: the paper's customized switches split
// multicast flows into unicast flows and allocate no multicast table.
func New[K comparable, V any](name string, capacity int) *Table[K, V] {
	if capacity < 0 {
		panic("tables: negative capacity")
	}
	return &Table[K, V]{name: name, capacity: capacity, entries: make(map[K]V)}
}

// Capacity returns the configured entry budget.
func (t *Table[K, V]) Capacity() int { return t.capacity }

// Len returns the number of installed entries.
func (t *Table[K, V]) Len() int { return len(t.entries) }

// Reserve sizes an empty table's storage for n entries (at most its
// capacity), so installing them grows nothing.
func (t *Table[K, V]) Reserve(n int) {
	if len(t.entries) == 0 {
		t.entries = make(map[K]V, min(n, t.capacity))
	}
}

// Add installs k -> v. Overwriting an existing key does not consume
// capacity.
func (t *Table[K, V]) Add(k K, v V) error {
	if _, ok := t.entries[k]; !ok && len(t.entries) >= t.capacity {
		return fmt.Errorf("%w: %s capacity %d", ErrTableFull, t.name, t.capacity)
	}
	t.entries[k] = v
	return nil
}

// Lookup resolves k.
func (t *Table[K, V]) Lookup(k K) (V, bool) {
	v, ok := t.entries[k]
	return v, ok
}

// Resize changes the entry budget in place — the live-reconfiguration
// primitive behind set_switch_tbl and set_class_tbl. Installed entries
// survive; shrinking below the live occupancy fails.
func (t *Table[K, V]) Resize(capacity int) error {
	if capacity < 0 {
		return fmt.Errorf("tables: negative %s capacity %d", t.name, capacity)
	}
	if len(t.entries) > capacity {
		return fmt.Errorf("tables: cannot shrink %s table to %d: %d entries installed",
			t.name, capacity, len(t.entries))
	}
	t.capacity = capacity
	return nil
}
