package gptp

import (
	"encoding/binary"
	"errors"
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// MsgType enumerates the PTP message types the model exchanges.
type MsgType uint8

// Message types (values follow IEEE 1588's messageType field).
const (
	MsgSync       MsgType = 0x0
	MsgPdelayReq  MsgType = 0x2
	MsgPdelayResp MsgType = 0x3
	MsgFollowUp   MsgType = 0x8
	MsgAnnounce   MsgType = 0xB
)

// String implements fmt.Stringer.
func (t MsgType) String() string {
	switch t {
	case MsgSync:
		return "Sync"
	case MsgPdelayReq:
		return "Pdelay_Req"
	case MsgPdelayResp:
		return "Pdelay_Resp"
	case MsgFollowUp:
		return "Follow_Up"
	case MsgAnnounce:
		return "Announce"
	}
	return fmt.Sprintf("MsgType(%#x)", uint8(t))
}

// PriorityVector is the BMCA comparison key (a condensed form of
// 802.1AS's systemIdentity): lower compares better.
type PriorityVector struct {
	// Priority1 is the administrative preference (lower wins).
	Priority1 uint8
	// ClockClass describes traceability (lower is better; 6 = primary
	// reference, 248 = default free-running).
	ClockClass uint8
	// ClockID breaks ties (derived from the MAC in hardware).
	ClockID uint64
}

// Less reports whether p outranks q in the BMCA ordering.
func (p PriorityVector) Less(q PriorityVector) bool {
	if p.Priority1 != q.Priority1 {
		return p.Priority1 < q.Priority1
	}
	if p.ClockClass != q.ClockClass {
		return p.ClockClass < q.ClockClass
	}
	return p.ClockID < q.ClockID
}

// Message is one PTP protocol data unit.
type Message struct {
	Type MsgType
	Seq  uint16
	// OriginTS carries the precise origin timestamp (Follow_Up) or the
	// relevant event timestamp (Pdelay_Resp's requestReceiptTimestamp).
	OriginTS sim.Time
	// Correction accumulates residence/turnaround time in ns.
	Correction int64
	// Priority is the announced system identity (Announce only).
	Priority PriorityVector
	// Steps is the announced stepsRemoved (Announce only).
	Steps uint16
}

const msgBodyBytes = 1 + 1 + 2 + 8 + 8 + 1 + 1 + 8 + 2 // version+type+seq+ts+corr+prio1+class+id+steps

// Marshal encodes the message into an Ethernet frame addressed to the
// PTP multicast range, as gPTP transports event messages.
func (m *Message) Marshal(src ethernet.MAC) *ethernet.Frame {
	f := new(ethernet.Frame)
	m.encode(f, make([]byte, msgBodyBytes), src)
	return f
}

// encode is Marshal into f, with body (msgBodyBytes long) as its
// payload: a sender that reuses one frame and body allocates nothing.
func (m *Message) encode(f *ethernet.Frame, body []byte, src ethernet.MAC) {
	body[0] = 2 // PTP version
	body[1] = byte(m.Type)
	binary.BigEndian.PutUint16(body[2:], m.Seq)
	binary.BigEndian.PutUint64(body[4:], uint64(m.OriginTS))
	binary.BigEndian.PutUint64(body[12:], uint64(m.Correction))
	body[20] = m.Priority.Priority1
	body[21] = m.Priority.ClockClass
	binary.BigEndian.PutUint64(body[22:], m.Priority.ClockID)
	binary.BigEndian.PutUint16(body[30:], m.Steps)
	*f = ethernet.Frame{
		Dst:       ethernet.MAC{0x01, 0x80, 0xC2, 0x00, 0x00, 0x0E}, // 802.1AS link-local
		Src:       src,
		VID:       0,
		PCP:       7,
		EtherType: ethernet.TypePTP,
		Payload:   body,
	}
}

// errNotPTP reports a frame that is not a PTP message.
var errNotPTP = errors.New("gptp: not a PTP frame")

// UnmarshalMessage decodes a PTP frame produced by Marshal.
func UnmarshalMessage(f *ethernet.Frame) (*Message, error) {
	m, err := decode(f)
	if err != nil {
		return nil, err
	}
	return &m, nil
}

// decode is UnmarshalMessage into a value, which the protocol's own
// receivers use so a message allocates nothing.
func decode(f *ethernet.Frame) (Message, error) {
	if f.EtherType != ethernet.TypePTP {
		return Message{}, errNotPTP
	}
	if len(f.Payload) < msgBodyBytes {
		return Message{}, fmt.Errorf("gptp: truncated PTP body (%d bytes)", len(f.Payload))
	}
	b := f.Payload
	if b[0] != 2 {
		return Message{}, fmt.Errorf("gptp: unsupported PTP version %d", b[0])
	}
	m := Message{
		Type:       MsgType(b[1]),
		Seq:        binary.BigEndian.Uint16(b[2:]),
		OriginTS:   sim.Time(binary.BigEndian.Uint64(b[4:])),
		Correction: int64(binary.BigEndian.Uint64(b[12:])),
		Priority: PriorityVector{
			Priority1:  b[20],
			ClockClass: b[21],
			ClockID:    binary.BigEndian.Uint64(b[22:]),
		},
		Steps: binary.BigEndian.Uint16(b[30:]),
	}
	switch m.Type {
	case MsgSync, MsgPdelayReq, MsgPdelayResp, MsgFollowUp, MsgAnnounce:
		return m, nil
	}
	return Message{}, fmt.Errorf("gptp: unknown message type %#x", b[1])
}
