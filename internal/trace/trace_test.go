package trace

import (
	"strings"
	"testing"
)

func TestRecordAndQuery(t *testing.T) {
	r := NewFlight(8)
	r.Record(Event{At: 10, Kind: KindIngress, Switch: 0, FlowID: 1, Seq: 5})
	r.Record(Event{At: 20, Kind: KindEnqueue, Switch: 0, Port: 1, Queue: 7, FlowID: 1, Seq: 5})
	r.Record(Event{At: 30, Kind: KindTxStart, Switch: 0, Port: 1, Queue: 7, FlowID: 1, Seq: 5})
	r.Record(Event{At: 40, Kind: KindIngress, Switch: 1, FlowID: 2, Seq: 0})

	if r.Len() != 4 {
		t.Fatalf("Len = %d", r.Len())
	}
	pkt := r.SnapshotFlow(1, r.Cap())
	if len(pkt) != 3 {
		t.Fatalf("packet events = %d", len(pkt))
	}
	for i := 1; i < len(pkt); i++ {
		if pkt[i].At < pkt[i-1].At {
			t.Fatal("packet events out of order")
		}
	}
	ingress := 0
	for _, ev := range r.Snapshot(r.Cap()) {
		if ev.Kind == KindIngress {
			ingress++
		}
	}
	if ingress != 2 {
		t.Fatalf("ingress events = %d", ingress)
	}
	if got := r.SnapshotFlow(9, r.Cap()); len(got) != 0 {
		t.Fatal("unknown flow returned events")
	}
}

// TestNilRecorderSafe: a nil recorder's empty snapshot is a valid input
// to every reader.
func TestNilRecorderSafe(t *testing.T) {
	var r *Flight
	r.Record(Event{}) // must not panic
	evs := r.Snapshot(r.Cap())
	if r.Len() != 0 || evs != nil || r.SnapshotFlow(1, 1) != nil ||
		Residences(evs) != nil || r.Seq() != 0 {
		t.Fatal("nil recorder misbehaved")
	}
}

// TestLimit: the ring keeps the newest Cap() events; the rest are
// counted as overwritten (Seq − Len).
func TestLimit(t *testing.T) {
	r := NewFlight(2)
	for i := 0; i < 5; i++ {
		r.Record(Event{Seq: uint32(i)})
	}
	if r.Len() != 2 {
		t.Fatalf("Len = %d", r.Len())
	}
	if lost := r.Seq() - uint64(r.Len()); lost != 3 {
		t.Fatalf("overwritten = %d", lost)
	}
	if evs := r.Snapshot(r.Cap()); evs[0].Seq != 3 || evs[1].Seq != 4 {
		t.Fatalf("kept %+v, want the newest two", evs)
	}
}

func TestEventString(t *testing.T) {
	e := Event{At: 1000, Kind: KindDrop, Switch: 2, Port: 1, Queue: 7,
		FlowID: 3, Seq: 4, Detail: "queue-full"}
	s := e.String()
	for _, frag := range []string{"drop", "sw2.p1", "q7", "flow=3", "queue-full"} {
		if !strings.Contains(s, frag) {
			t.Errorf("event string %q missing %q", s, frag)
		}
	}
	if Kind(9).String() != "Kind(9)" {
		t.Error("unknown kind formatting")
	}
	for k := KindIngress; k <= KindTxStart; k++ {
		if k.String() == "" {
			t.Error("empty kind name")
		}
	}
}
