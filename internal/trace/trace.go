// Package trace records per-packet dataplane events — the software
// equivalent of the probe points a hardware bring-up would watch with a
// logic analyzer. Switches emit an event at ingress, at enqueue, at
// every drop and at transmission start into one ring per engine, the
// Flight, which keeps the most recent events. Post-mortem dumps, the
// live event feed, queue-residence hotspots (Residences) and the
// Chrome trace export (WriteChrome) all read that one ring.
package trace

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// Kind classifies an event.
type Kind int

// Event kinds in pipeline order.
const (
	KindIngress Kind = iota
	KindEnqueue
	KindDrop
	KindTxStart
)

// String implements fmt.Stringer.
func (k Kind) String() string {
	switch k {
	case KindIngress:
		return "ingress"
	case KindEnqueue:
		return "enqueue"
	case KindDrop:
		return "drop"
	case KindTxStart:
		return "tx-start"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Event is one probe sample.
type Event struct {
	At     sim.Time
	Kind   Kind
	Switch int
	Port   int
	Queue  int
	FlowID uint32
	Seq    uint32
	// Detail carries the drop reason or other annotations.
	Detail string
}

// String renders an event compactly.
func (e Event) String() string {
	s := fmt.Sprintf("%v %s sw%d.p%d q%d flow=%d seq=%d",
		e.At, e.Kind, e.Switch, e.Port, e.Queue, e.FlowID, e.Seq)
	if e.Detail != "" {
		s += " (" + e.Detail + ")"
	}
	return s
}
