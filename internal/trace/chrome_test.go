package trace

import (
	"bytes"
	"encoding/json"
	"testing"
)

func TestWriteChromeCountMatchesLen(t *testing.T) {
	r := NewFlight(8)
	r.Record(Event{At: 1500, Kind: KindIngress, Switch: 0, Port: -1, Queue: -1, FlowID: 1, Seq: 1})
	r.Record(Event{At: 2500, Kind: KindEnqueue, Switch: 0, Port: 1, Queue: 7, FlowID: 1, Seq: 1})
	r.Record(Event{At: 3500, Kind: KindDrop, Switch: 1, Port: 2, Queue: 3, FlowID: 2, Seq: 9, Detail: "queue-full"})

	var buf bytes.Buffer
	if err := WriteChrome(&buf, r.Snapshot(r.Cap()), 0); err != nil {
		t.Fatal(err)
	}
	var got struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name  string  `json:"name"`
			Phase string  `json:"ph"`
			TS    float64 `json:"ts"`
			PID   int     `json:"pid"`
			TID   int     `json:"tid"`
			Args  struct {
				Flow   uint32 `json:"flow"`
				Detail string `json:"detail"`
			} `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	if len(got.TraceEvents) != r.Len() {
		t.Fatalf("traceEvents = %d, want Len() = %d", len(got.TraceEvents), r.Len())
	}
	ev := got.TraceEvents[2]
	if ev.Name != "drop" || ev.Phase != "i" || ev.PID != 1 || ev.TID != 2 {
		t.Fatalf("drop event = %+v", ev)
	}
	if ev.TS != 3.5 { // 3500 ns = 3.5 µs
		t.Fatalf("ts = %v µs, want 3.5", ev.TS)
	}
	if ev.Args.Flow != 2 || ev.Args.Detail != "queue-full" {
		t.Fatalf("args = %+v", ev.Args)
	}
}

func TestWriteChromeNilAndEmpty(t *testing.T) {
	for _, evs := range [][]Event{nil, {}} {
		var buf bytes.Buffer
		if err := WriteChrome(&buf, evs, 0); err != nil {
			t.Fatal(err)
		}
		var got map[string]any
		if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
			t.Fatalf("invalid JSON: %v", err)
		}
		if n := len(got["traceEvents"].([]any)); n != 0 {
			t.Fatalf("traceEvents = %d, want 0", n)
		}
	}
}

// TestLimitByPacketConsistency: once the ring wraps, the per-flow view
// and the export both describe the newest Cap() events, and the export
// counts the overwritten rest.
func TestLimitByPacketConsistency(t *testing.T) {
	r := NewFlight(3)
	// The last two records overwrite packet (1,1)'s ingress and enqueue.
	r.Record(Event{At: 1, Kind: KindIngress, FlowID: 1, Seq: 1})
	r.Record(Event{At: 2, Kind: KindEnqueue, FlowID: 1, Seq: 1})
	r.Record(Event{At: 3, Kind: KindIngress, FlowID: 2, Seq: 2})
	r.Record(Event{At: 4, Kind: KindTxStart, FlowID: 1, Seq: 1})
	r.Record(Event{At: 5, Kind: KindEnqueue, FlowID: 2, Seq: 2})

	lost := r.Seq() - uint64(r.Len())
	if r.Len() != 3 || lost != 2 {
		t.Fatalf("Len = %d, overwritten = %d", r.Len(), lost)
	}
	// The flow views hold only retained events, in record order.
	p1 := r.SnapshotFlow(1, r.Cap())
	if len(p1) != 1 || p1[0].Kind != KindTxStart {
		t.Fatalf("flow 1 = %+v", p1)
	}
	if p2 := r.SnapshotFlow(2, r.Cap()); len(p2) != 2 || p2[0].At != 3 {
		t.Fatalf("flow 2 = %+v", p2)
	}
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r.Snapshot(r.Cap()), lost); err != nil {
		t.Fatal(err)
	}
	var got struct {
		TraceEvents     []json.RawMessage `json:"traceEvents"`
		TruncatedEvents uint64            `json:"truncatedEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &got); err != nil {
		t.Fatal(err)
	}
	if len(got.TraceEvents) != 3 || got.TruncatedEvents != 2 {
		t.Fatalf("export holds %d events, truncatedEvents %d; want 3 and 2", len(got.TraceEvents), got.TruncatedEvents)
	}
}

func TestNilRecorderChromeSafe(t *testing.T) {
	var r *Flight
	var buf bytes.Buffer
	if err := WriteChrome(&buf, r.Snapshot(r.Cap()), 0); err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("nil recorder wrote nothing")
	}
}
