// Package tsnswitch composes the five TSN-Builder function templates —
// Packet Switch, Ingress Filter, Gate Ctrl, Egress Sched and Time Sync —
// into the complete switch of Fig. 3, with the per-port queue/buffer
// resources of Fig. 4.
//
// Ingress path:  Packet Switch lookup → Ingress Filter classify+meter →
// ingress gate → metadata queue + packet buffer. Egress path: egress
// gate → strict priority + CBS → wire. Gate state is evaluated against
// the switch's local synchronized clock, as Gate Ctrl does in hardware.
package tsnswitch

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/gate"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// Config is the platform-level resource specification of one switch.
// Every field is set by a TSN-Builder customization API (Table II).
type Config struct {
	ID int

	// Ports is the number of enabled TSN ports (port_num).
	Ports int
	// QueuesPerPort is queue_num: queues attached to each port.
	QueuesPerPort int
	// QueueDepth is queue_depth: descriptors per queue.
	QueueDepth int
	// BuffersPerPort is buffer_num: 2048 B packet buffers per port.
	BuffersPerPort int
	// SharedBufferNum, when positive, replaces the per-port pools with
	// one pool of this many buffers shared by all ports — the
	// switch-memory-switch (SMS) architecture the paper contrasts with
	// in §VI. BuffersPerPort is ignored in that mode.
	SharedBufferNum int

	// UnicastSize / MulticastSize size the switch table
	// (set_switch_tbl).
	UnicastSize   int
	MulticastSize int
	// ClassSize sizes the classification table (set_class_tbl).
	ClassSize int
	// MeterSize sizes the meter table (set_meter_tbl).
	MeterSize int
	// GateSize is the number of entries in each in/out gate table
	// (set_gate_tbl); CQF needs exactly 2.
	GateSize int
	// CBSMapSize / CBSSize size the per-port CBS MAP and CBS tables
	// (set_cbs_tbl).
	CBSMapSize int
	CBSSize    int

	// EnablePreemption activates 802.1Qbu/802.3br frame preemption:
	// express (TS-queue) frames interrupt preemptable frames
	// mid-transmission instead of waiting for them to drain.
	EnablePreemption bool

	// SlotSize is the CQF time slot; the paper's default is 65 µs.
	SlotSize sim.Time
	// TSQueueA/TSQueueB are the two queues cycled by CQF.
	TSQueueA, TSQueueB int
	// LinkRate is the default port line rate.
	LinkRate ethernet.Rate
	// PortRates optionally overrides the line rate per port (0 entries
	// fall back to LinkRate) — mixed-speed networks attach 100 Mbps
	// field devices to 1 Gbps trunks.
	PortRates []ethernet.Rate

	// Metrics, when non-nil, receives the switch's telemetry: all
	// dataplane instruments are resolved against it at construction so
	// the hot path never pays a lookup. Nil disables instrumentation.
	Metrics *metrics.Registry
	// CQF, when non-nil, is where the switch takes its initial CQF gate
	// lists from, so the switches of one network share them. Nil builds
	// the switch a pair of its own.
	CQF *CQFLists
}

// CQFLists hands out CQF gate lists: the in/out pair of one (slot,
// queue A, queue B) is built at its first request and returned again
// for the same three. A list is immutable and may serve both directions
// and any number of ports, so one network needs one pair, not one per
// switch. The zero value is ready; it is not safe for concurrent use.
type CQFLists struct {
	pairs map[cqfKey][2]*gate.GCL
}

type cqfKey struct {
	slot sim.Time
	a, b int
}

// Pair returns the CQF in/out lists of (slot, queueA, queueB). A nil
// receiver builds a fresh pair.
func (l *CQFLists) Pair(slot sim.Time, queueA, queueB int) (in, out *gate.GCL) {
	if l == nil {
		return gate.CQF(slot, queueA, queueB)
	}
	k := cqfKey{slot, queueA, queueB}
	p, ok := l.pairs[k]
	if !ok {
		if l.pairs == nil {
			l.pairs = make(map[cqfKey][2]*gate.GCL)
		}
		p[0], p[1] = gate.CQF(slot, queueA, queueB)
		l.pairs[k] = p
	}
	return p[0], p[1]
}

// RateFor returns port p's line rate.
func (c *Config) RateFor(p int) ethernet.Rate {
	if p < len(c.PortRates) && c.PortRates[p] > 0 {
		return c.PortRates[p]
	}
	return c.LinkRate
}

// Validate checks internal consistency.
func (c *Config) Validate() error {
	switch {
	case c.Ports <= 0:
		return fmt.Errorf("tsnswitch: ports = %d", c.Ports)
	case c.QueuesPerPort <= 0 || c.QueuesPerPort > 16:
		return fmt.Errorf("tsnswitch: queues per port = %d", c.QueuesPerPort)
	case c.QueueDepth <= 0:
		return fmt.Errorf("tsnswitch: queue depth = %d", c.QueueDepth)
	case c.BuffersPerPort <= 0 && c.SharedBufferNum <= 0:
		return fmt.Errorf("tsnswitch: no buffers configured")
	case c.SharedBufferNum < 0:
		return fmt.Errorf("tsnswitch: shared buffers = %d", c.SharedBufferNum)
	case c.GateSize < 2:
		return fmt.Errorf("tsnswitch: gate size %d < 2 (CQF needs 2)", c.GateSize)
	case c.SlotSize <= 0:
		return fmt.Errorf("tsnswitch: slot size = %v", c.SlotSize)
	case c.TSQueueA == c.TSQueueB:
		return fmt.Errorf("tsnswitch: TS queues must differ")
	case c.TSQueueA >= c.QueuesPerPort || c.TSQueueB >= c.QueuesPerPort:
		return fmt.Errorf("tsnswitch: TS queue out of range")
	case c.TSQueueA < 0 || c.TSQueueB < 0:
		return fmt.Errorf("tsnswitch: negative TS queue")
	case c.LinkRate <= 0:
		return fmt.Errorf("tsnswitch: link rate = %d", c.LinkRate)
	case c.UnicastSize < 0 || c.MulticastSize < 0 || c.ClassSize < 0 || c.MeterSize < 0:
		return fmt.Errorf("tsnswitch: negative table size")
	case c.CBSMapSize < 0 || c.CBSSize < 0:
		return fmt.Errorf("tsnswitch: negative CBS table size")
	}
	for p, r := range c.PortRates {
		if r < 0 {
			return fmt.Errorf("tsnswitch: negative rate on port %d", p)
		}
	}
	return nil
}

// DropReason classifies frame drops for the statistics the analyzer and
// the experiments report.
type DropReason int

// Drop reasons observed in the dataplane.
const (
	DropNoRoute DropReason = iota
	DropMeter
	DropGateClosed
	DropBufferFull
	DropQueueFull
	// DropDegraded counts frames shed by the graceful-degradation
	// policy: under buffer pressure the watchdog raises the switch's
	// degrade level and lower classes are dropped at admission so TS
	// traffic keeps its buffers.
	DropDegraded
	dropReasonCount
)

// DropReasons lists every drop reason the dataplane records, in enum
// order — for tooling that iterates the tsn_switch_drops_total series.
func DropReasons() []DropReason {
	out := make([]DropReason, dropReasonCount)
	for i := range out {
		out[i] = DropReason(i)
	}
	return out
}

// String implements fmt.Stringer.
func (r DropReason) String() string {
	switch r {
	case DropNoRoute:
		return "no-route"
	case DropMeter:
		return "meter"
	case DropGateClosed:
		return "gate-closed"
	case DropBufferFull:
		return "buffer-full"
	case DropQueueFull:
		return "queue-full"
	case DropDegraded:
		return "degraded"
	}
	return fmt.Sprintf("DropReason(%d)", int(r))
}

// DegradeLevel selects how aggressively the switch sheds traffic at
// admission when the watchdog detects buffer pressure. TS frames are
// never shed: the whole point of the policy is that degradation eats
// best-effort headroom before it touches the time-sensitive service.
// It is an int64 so the watchdog's level gauge can read it in place.
type DegradeLevel int64

// Degradation levels, in escalation order.
const (
	// DegradeOff admits every class (normal operation).
	DegradeOff DegradeLevel = iota
	// DegradeShedBE drops best-effort frames at admission.
	DegradeShedBE
	// DegradeShedRC drops best-effort and rate-constrained frames,
	// leaving buffers exclusively to TS traffic.
	DegradeShedRC
)

// String implements fmt.Stringer.
func (l DegradeLevel) String() string {
	switch l {
	case DegradeOff:
		return "off"
	case DegradeShedBE:
		return "shed-be"
	case DegradeShedRC:
		return "shed-rc"
	}
	return fmt.Sprintf("DegradeLevel(%d)", int(l))
}

// Stats aggregates one switch's dataplane counters.
type Stats struct {
	RxFrames uint64
	TxFrames uint64
	Drops    [dropReasonCount]uint64
}

// TotalDrops sums all drop reasons.
func (s *Stats) TotalDrops() uint64 {
	var total uint64
	for _, d := range s.Drops {
		total += d
	}
	return total
}
