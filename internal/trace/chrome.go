package trace

import (
	"encoding/json"
	"io"
)

// chromeEvent is one entry of the Chrome trace-event format's
// traceEvents array (the JSON consumed by chrome://tracing and
// Perfetto). Timestamps are microseconds; fractional digits keep the
// simulator's nanosecond resolution.
type chromeEvent struct {
	Name  string     `json:"name"`
	Cat   string     `json:"cat"`
	Phase string     `json:"ph"`
	TS    float64    `json:"ts"`
	PID   int        `json:"pid"`
	TID   int        `json:"tid"`
	Scope string     `json:"s"`
	Args  chromeArgs `json:"args"`
}

type chromeArgs struct {
	Flow   uint32 `json:"flow"`
	Seq    uint32 `json:"seq"`
	Queue  int    `json:"queue"`
	Detail string `json:"detail,omitempty"`
}

type chromeTrace struct {
	DisplayTimeUnit string        `json:"displayTimeUnit"`
	TraceEvents     []chromeEvent `json:"traceEvents"`
	// TruncatedEvents is how many older events the ring overwrote and
	// this export therefore lacks. Zero on a complete trace; tooling
	// must treat a non-zero value as an incomplete view, not a clean run.
	TruncatedEvents uint64 `json:"truncatedEvents"`
}

// WriteChrome exports events as thread-scoped instant events: pid =
// switch, tid = port, name = event kind. The output loads directly into
// chrome://tracing or Perfetto; the traceEvents array holds exactly
// len(events) entries (no metadata records), and the top-level
// truncatedEvents field carries truncated — the recorder's count of
// events it no longer holds — so tooling can tell a partial view.
func WriteChrome(w io.Writer, events []Event, truncated uint64) error {
	out := chromeTrace{
		DisplayTimeUnit: "ns",
		TraceEvents:     make([]chromeEvent, 0, len(events)),
		TruncatedEvents: truncated,
	}
	for _, ev := range events {
		out.TraceEvents = append(out.TraceEvents, chromeEvent{
			Name:  ev.Kind.String(),
			Cat:   "dataplane",
			Phase: "i",
			TS:    float64(ev.At) / 1e3,
			PID:   ev.Switch,
			TID:   ev.Port,
			Scope: "t",
			Args: chromeArgs{
				Flow: ev.FlowID, Seq: ev.Seq,
				Queue: ev.Queue, Detail: ev.Detail,
			},
		})
	}
	return json.NewEncoder(w).Encode(out)
}
