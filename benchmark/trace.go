package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// Span is one timed call the benchmark made into a layer's public API.
// Spans are recorded from the benchmark's own files only — no layer's
// source carries a hook — and kept in memory until the run ends.
type Span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 = root
	Name   string `json:"name"`
	// Workload tags every span of one run; spans of one round (or one
	// request) share their parent chain up to the round span.
	Workload string `json:"workload"`
	StartNs  int64  `json:"start_ns"` // since the tracer's epoch
	EndNs    int64  `json:"end_ns"`
}

// Tracer records spans. A nil *Tracer is the untraced run: every
// method is a no-op, so the timed path carries one nil check and
// nothing else.
type Tracer struct {
	mu       sync.Mutex
	epoch    time.Time
	workload string
	spans    []Span
}

func newTracer(workload string) *Tracer {
	return &Tracer{epoch: time.Now(), workload: workload}
}

// Start opens a span under parent (0 for a root) and returns its id.
func (t *Tracer) Start(name string, parent int) int {
	if t == nil {
		return 0
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, Span{ID: id, Parent: parent, Name: name, Workload: t.workload, StartNs: now})
	t.mu.Unlock()
	return id
}

// End closes span id.
func (t *Tracer) End(id int) {
	if t == nil {
		return
	}
	now := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNs = now
	t.mu.Unlock()
}

// Spans returns a copy of everything recorded so far.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]Span(nil), t.spans...)
}

// SelfTime is one span name's aggregate: how often it ran, its total
// duration, and the part of that its child spans did not cover.
type SelfTime struct {
	Name    string
	Count   int
	TotalNs int64
	SelfNs  int64
}

// selfTimes folds spans by name. A span's self time is its duration
// minus the part of its interval that child spans cover; children of
// concurrent clients overlap, so coverage is the union of the child
// intervals clipped to the parent, not their sum.
func selfTimes(spans []Span) []SelfTime {
	children := make(map[int][]Span)
	for _, s := range spans {
		if s.Parent != 0 {
			children[s.Parent] = append(children[s.Parent], s)
		}
	}
	byName := make(map[string]*SelfTime)
	var order []string
	for _, s := range spans {
		st, ok := byName[s.Name]
		if !ok {
			st = &SelfTime{Name: s.Name}
			byName[s.Name] = st
			order = append(order, s.Name)
		}
		dur := s.EndNs - s.StartNs
		st.Count++
		st.TotalNs += dur
		st.SelfNs += dur - covered(s, children[s.ID])
	}
	out := make([]SelfTime, 0, len(order))
	for _, name := range order {
		out = append(out, *byName[name])
	}
	return out
}

// covered returns how many nanoseconds of parent's interval the union
// of kids covers.
func covered(parent Span, kids []Span) int64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNs < kids[j].StartNs })
	var total int64
	curStart, curEnd := int64(-1), int64(-1)
	for _, k := range kids {
		s, e := max(k.StartNs, parent.StartNs), min(k.EndNs, parent.EndNs)
		if e <= s {
			continue
		}
		if s > curEnd {
			total += curEnd - curStart
			curStart, curEnd = s, e
		} else if e > curEnd {
			curEnd = e
		}
	}
	return total + curEnd - curStart
}

// writeSpans dumps the spans as one JSON document at path.
func writeSpans(path string, spans []Span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Spans []Span `json:"spans"`
	}{spans}); err != nil {
		f.Close()
		return fmt.Errorf("span file: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("span file: %w", err)
	}
	return nil
}
