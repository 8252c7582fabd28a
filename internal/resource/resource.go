// Package resource is the fine-grained on-chip-memory abstraction of
// TSN-Builder (§III.B): it maps every resource class of Fig. 4 —
// switch/classification/meter/gate/CBS tables, metadata queues and
// packet buffers — onto FPGA block RAM, using the entry widths and the
// 18 Kb/36 Kb block allocation of the paper's Table III.
//
// Calibration: this model reproduces every BRAM figure in Table I and
// Table III of the paper exactly (see the package tests).
package resource

import (
	"fmt"
	"strconv"
	"strings"
)

// Entry widths in bits, from Table III's "Bit/Byte Width" column.
const (
	UnicastWidth   = 72  // Dst MAC + VID + outport
	MulticastWidth = 72  // MC ID + port set
	ClassWidth     = 117 // Src MAC + Dst MAC + VID + PRI → Meter/Queue ID
	MeterWidth     = 68  // rate, bucket state
	GateWidth      = 17  // per-queue gate bits + slot bookkeeping
	// CBSMapWidth + CBSWidth: "the entry width of CBS table and CBS MAP
	// table is 72b in total".
	CBSMapWidth    = 8  // queue → shaper binding
	CBSWidth       = 64 // idleslope + sendslope + credit
	QueueMetaWidth = 32 // packet descriptor (metadata)
	// FRERBaseWidth is the fixed part of one 802.1CB sequence-recovery
	// entry: stream handle (16b) + RecovSeqNum (16b, the standard's
	// sequence-number space) + head pointer and per-stream counters.
	// The history window bitmap (SequenceHistory, one bit per sequence
	// number remembered) is added per configured history length.
	FRERBaseWidth = 48
)

// Buffer geometry: a 2048 B payload slot plus a 112 B descriptor
// (next-pointer, length, timestamps), i.e. 17280 bits of BRAM per
// buffer. This footprint is what reconciles the paper's buffer rows
// (e.g. 96 buffers × 1 port = 1620 Kb).
const (
	BufferPayloadBytes = 2048
	BufferDescBytes    = 112
	BufferSlotBits     = (BufferPayloadBytes + BufferDescBytes) * 8
)

// BRAM block sizes in bits. Xilinx 7-series block RAM comes in 18 Kb
// primitives pairable into 36 Kb blocks; Kb here is 1024 bits.
const (
	Block18Bits = 18 * 1024
	Block36Bits = 36 * 1024
)

// blocks18 returns the number of 18 Kb blocks needed for bits of
// storage (zero for zero bits).
func blocks18(bits int64) int64 {
	if bits <= 0 {
		return 0
	}
	return (bits + Block18Bits - 1) / Block18Bits
}

// tableBits returns the BRAM bits a table of depth entries × width bits
// occupies after block quantization.
func tableBits(width, depth int) int64 {
	return blocks18(int64(width)*int64(depth)) * Block18Bits
}

// Item is one row of a resource report (one row of Table III).
type Item struct {
	Name   string
	Width  string // human-readable width, e.g. "72b" or "2048B"
	Params string // the customization API parameters, e.g. "2, 8, 4"
	Bits   int64  // BRAM bits allocated
}

// Kb returns the row's BRAM in Kb (1 Kb = 1024 bits), the paper's unit.
func (it Item) Kb() float64 { return float64(it.Bits) / 1024 }

// The Width column of every fixed-width item, rendered once: the
// pricing functions run per design build and per study row.
var (
	widthUnicast = fmt.Sprintf("%db", UnicastWidth)
	widthClass   = fmt.Sprintf("%db", ClassWidth)
	widthMeter   = fmt.Sprintf("%db", MeterWidth)
	widthGate    = fmt.Sprintf("%db", GateWidth)
	widthCBS     = fmt.Sprintf("%db", CBSMapWidth+CBSWidth)
	widthQueue   = fmt.Sprintf("%db", QueueMetaWidth)
	widthBuffer  = fmt.Sprintf("%dB", BufferPayloadBytes)
)

// SwitchTbl models set_switch_tbl(unicast_size, multicast_size): the
// unicast and multicast switch tables, shared by all ports.
func SwitchTbl(unicastSize, multicastSize int) Item {
	return Item{
		Name:   "Switch Tbl",
		Width:  widthUnicast,
		Params: params(true, unicastSize, multicastSize),
		Bits:   tableBits(UnicastWidth, unicastSize) + tableBits(MulticastWidth, multicastSize),
	}
}

// ClassTbl models set_class_tbl(class_size).
func ClassTbl(classSize int) Item {
	return Item{
		Name:   "Class. Tbl",
		Width:  widthClass,
		Params: params(true, classSize),
		Bits:   tableBits(ClassWidth, classSize),
	}
}

// MeterTbl models set_meter_tbl(meter_size).
func MeterTbl(meterSize int) Item {
	return Item{
		Name:   "Meter Tbl",
		Width:  widthMeter,
		Params: params(true, meterSize),
		Bits:   tableBits(MeterWidth, meterSize),
	}
}

// GateTbl models set_gate_tbl(gate_size, queue_num, port_num): each
// port owns an input and an output gate table of gate_size entries;
// each table occupies at least one 18 Kb block.
func GateTbl(gateSize, queueNum, portNum int) Item {
	perTable := tableBits(GateWidth, gateSize)
	return Item{
		Name:   "Gate Tbl",
		Width:  widthGate,
		Params: params(false, gateSize, queueNum, portNum),
		Bits:   2 * perTable * int64(portNum),
	}
}

// CBSTbl models set_cbs_tbl(cbs_map_size, cbs_size, port_num): each
// port owns a CBS MAP table and a CBS table, each at least one block.
func CBSTbl(cbsMapSize, cbsSize, portNum int) Item {
	per := tableBits(CBSMapWidth, cbsMapSize) + tableBits(CBSWidth, cbsSize)
	return Item{
		Name:   "CBS Tbl",
		Width:  widthCBS,
		Params: params(false, cbsMapSize, cbsSize, portNum),
		Bits:   per * int64(portNum),
	}
}

// Queues models set_queues(queue_depth, queue_num, port_num): each
// queue is an independent memory of queue_depth descriptors and
// occupies at least one 18 Kb block.
func Queues(queueDepth, queueNum, portNum int) Item {
	perQueue := tableBits(QueueMetaWidth, queueDepth)
	return Item{
		Name:   "Queues",
		Width:  widthQueue,
		Params: params(false, queueDepth, queueNum, portNum),
		Bits:   perQueue * int64(queueNum) * int64(portNum),
	}
}

// Buffers models set_buffers(buffer_num, port_num): each port owns a
// contiguous pool of buffer_num slots (payload + descriptor).
func Buffers(bufferNum, portNum int) Item {
	return Item{
		Name:   "Buffers",
		Width:  widthBuffer,
		Params: params(false, bufferNum, portNum),
		Bits:   int64(BufferSlotBits) * int64(bufferNum) * int64(portNum),
	}
}

// FRERTbl models set_frer_tbl(frer_size, history_len): the eighth
// resource class, not in the paper's Table II but built in its spirit —
// an 802.1CB sequence-recovery table of frer_size streams, each entry
// carrying the vector-recovery state plus a history_len-bit window.
func FRERTbl(frerSize, historyLen int) Item {
	return Item{
		Name:   "FRER Tbl",
		Width:  fmt.Sprintf("%db", FRERBaseWidth+historyLen),
		Params: params(true, frerSize) + ", " + strconv.Itoa(historyLen),
		Bits:   tableBits(FRERBaseWidth+historyLen, frerSize),
	}
}

// SharedBuffers models the switch-memory-switch alternative (§VI,
// ref [16]): one pool of bufferNum slots shared by every port instead
// of per-port pools.
func SharedBuffers(bufferNum int) Item {
	return Item{
		Name:   "Buffers",
		Width:  widthBuffer,
		Params: fmt.Sprintf("%d shared", bufferNum),
		Bits:   int64(BufferSlotBits) * int64(bufferNum),
	}
}

// params renders a parameter list the way Table III prints it, "2, 8,
// 3" — or, with compact set, as entry counts ("16K, 0", "1024"). It
// formats into one string, so what it allocates does not depend on the
// values.
func params(compact bool, ns ...int) string {
	var buf [64]byte
	b := buf[:0]
	for i, n := range ns {
		if i > 0 {
			b = append(b, ", "...)
		}
		if compact && n != 0 && n%1024 == 0 {
			b = append(strconv.AppendInt(b, int64(n/1024), 10), 'K')
		} else {
			b = strconv.AppendInt(b, int64(n), 10)
		}
	}
	return string(b)
}

// Report is a full resource breakdown (one column group of Table III).
type Report struct {
	Label string
	Items []Item
}

// TotalBits sums the allocation.
func (r *Report) TotalBits() int64 {
	var total int64
	for _, it := range r.Items {
		total += it.Bits
	}
	return total
}

// TotalKb returns the total in Kb, the paper's bottom row.
func (r *Report) TotalKb() float64 { return float64(r.TotalBits()) / 1024 }

// ReductionVs returns the fractional saving versus a baseline report,
// e.g. 0.8053 for the ring column of Table III.
func (r *Report) ReductionVs(baseline *Report) float64 {
	b := baseline.TotalBits()
	if b == 0 {
		return 0
	}
	return 1 - float64(r.TotalBits())/float64(b)
}

// String renders the report as an aligned text table.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s\n", r.Label)
	fmt.Fprintf(&b, "  %-11s %-6s %-14s %10s\n", "Resource", "Width", "Parameters", "BRAM")
	for _, it := range r.Items {
		fmt.Fprintf(&b, "  %-11s %-6s %-14s %8.0fKb\n", it.Name, it.Width, it.Params, it.Kb())
	}
	fmt.Fprintf(&b, "  %-11s %-6s %-14s %8.0fKb\n", "Total", "", "", r.TotalKb())
	return b.String()
}
