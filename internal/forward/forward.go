// Package forward implements the Packet Switch function template of
// Fig. 5: a parser submodule that extracts the lookup fields from the
// packet header and a lookup submodule that resolves the output
// port(s). Unicast destinations are matched on (Dst MAC, VID); if the
// destination is a multicast address the multicast index is used to
// find a set of outports (Fig. 4).
package forward

import (
	"encoding/binary"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/tables"
)

// Engine is one switch's Packet Switch stage.
type Engine struct {
	Unicast   Unicast
	Multicast *tables.Table[uint16, uint32]
}

// New creates the stage with the given table capacities (the
// set_switch_tbl customization API parameters).
func New(unicastSize, multicastSize int) *Engine {
	return &Engine{
		Unicast:   Unicast{tables.New[tables.UnicastKey, int]("unicast", unicastSize)},
		Multicast: tables.New[uint16, uint32]("multicast", multicastSize),
	}
}

// Unicast is the unicast switch table; its Add and Lookup take the
// (Dst MAC, VID) pair the parser extracts rather than a
// tables.UnicastKey.
type Unicast struct {
	*tables.Table[tables.UnicastKey, int]
}

// Add installs dst/vid -> outPort.
func (u Unicast) Add(dst ethernet.MAC, vid uint16, outPort int) error {
	return u.Table.Add(tables.UnicastKey{Dst: dst, VID: vid}, outPort)
}

// Lookup resolves the output port for dst/vid.
func (u Unicast) Lookup(dst ethernet.MAC, vid uint16) (outPort int, ok bool) {
	return u.Table.Lookup(tables.UnicastKey{Dst: dst, VID: vid})
}

// MCID derives the multicast index from a group MAC: the low 16 bits,
// the common hardware convention.
func MCID(dst ethernet.MAC) uint16 {
	return binary.BigEndian.Uint16(dst[4:6])
}

// Resolve parses the frame header and returns the set of output ports
// as a bit mask (bit p = port p), the form the multicast table stores.
// ok is false when no table entry matches (the frame is dropped; the
// testbed installs static routes for every flow, so a miss indicates a
// misconfiguration, which the stats surface). A unicast entry naming a
// port the mask cannot hold is such a miss.
func (e *Engine) Resolve(f *ethernet.Frame) (ports uint32, ok bool) {
	if f.Dst.IsMulticast() && !f.Dst.IsBroadcast() {
		ports, ok = e.Multicast.Lookup(MCID(f.Dst))
	} else if p, hit := e.Unicast.Lookup(f.Dst, f.VID); hit && p >= 0 && p < 32 {
		ports, ok = 1<<uint(p), true
	}
	return ports, ok
}
