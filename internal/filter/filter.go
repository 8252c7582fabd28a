// Package filter implements the Ingress Filter function template of
// Fig. 5: a classifier that differentiates flows on the (Src MAC,
// Dst MAC, VID, PRI) tuple and puts packets into the specified meters
// (802.1Qci per-stream filtering and policing). The classification
// result carries the Meter ID that polices the flow and the Queue ID it
// joins at the output port.
package filter

import (
	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/meter"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tables"
)

// Verdict is the outcome of the ingress filtering stage.
type Verdict struct {
	QueueID int
	// Classified reports whether a classification entry matched;
	// unclassified frames fall back to PCP-based queue mapping.
	Classified bool
	// Conform is false when the flow's meter dropped the frame.
	Conform bool
}

// Engine is one switch's Ingress Filter stage.
type Engine struct {
	Class  *tables.Table[tables.ClassKey, tables.ClassEntry]
	Meters *meter.Table
	// queueCount bounds the fallback PCP→queue mapping.
	queueCount int
}

// New creates the stage with the given classification-table and
// meter-table capacities (set_class_tbl / set_meter_tbl parameters).
func New(classSize, meterSize, queueCount int) *Engine {
	if queueCount <= 0 {
		panic("filter: non-positive queue count")
	}
	return &Engine{
		Class:      tables.New[tables.ClassKey, tables.ClassEntry]("classification", classSize),
		Meters:     meter.NewTable(meterSize),
		queueCount: queueCount,
	}
}

// Process classifies and polices one frame at instant now.
func (e *Engine) Process(f *ethernet.Frame, now sim.Time) Verdict {
	entry, hit := e.Class.Lookup(tables.KeyFor(f))
	if !hit {
		// Fallback: map PCP directly onto a queue, unmetered. This is
		// the 802.1Q default priority→traffic-class mapping.
		q := int(f.PCP)
		if q >= e.queueCount {
			q = e.queueCount - 1
		}
		return Verdict{QueueID: q, Classified: false, Conform: true}
	}
	v := Verdict{QueueID: entry.QueueID, Classified: true, Conform: true}
	if entry.HasMeter && !e.Meters.Conform(entry.MeterID, now, f.WireBytes()) {
		v.Conform = false
	}
	return v
}
