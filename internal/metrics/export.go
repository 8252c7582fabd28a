package metrics

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strings"
)

// Snapshot is a point-in-time copy of every instrument, safe to
// export while the simulation continues.
type Snapshot struct {
	Families []FamilySnapshot `json:"families"`
}

// FamilySnapshot is one metric name's samples.
type FamilySnapshot struct {
	Name    string           `json:"name"`
	Help    string           `json:"help,omitempty"`
	Kind    Kind             `json:"kind"`
	Samples []SampleSnapshot `json:"samples"`
}

// SampleSnapshot is one labeled cell. Counters and gauges use Value;
// histograms use Bounds/Counts/Sum/Count. Labels and Bounds are
// read-only: every snapshot shares the registry's immutable slices.
type SampleSnapshot struct {
	Labels []Label  `json:"labels,omitempty"`
	Value  float64  `json:"value"`
	Bounds []int64  `json:"bounds,omitempty"`
	Counts []uint64 `json:"counts,omitempty"`
	Sum    float64  `json:"sum,omitempty"`
	Count  uint64   `json:"count,omitempty"`
	// Exemplar is the histogram's worst retained observation (JSON
	// export only; the Prometheus text format has no exemplar syntax).
	Exemplar *Exemplar `json:"exemplar,omitempty"`
}

// Snapshot copies the registry's current state in export order:
// families by name, each family's samples by their label values in
// declared key order (integers numerically, before names; names
// lexically), so an export never depends on the order anything was
// declared, resolved or merged in. Declared families without a cell
// are left out. A nil registry snapshots empty. Cells are kept in this
// order as they are resolved, and new cells' labels are rendered once,
// not per snapshot; slices are sized exactly and histogram counts are
// carved from one array per snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{}
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.settle()
	var nFam, nCounts int
	for _, f := range r.families {
		if len(f.samples) > 0 {
			nFam++
		}
		if f.kind == KindHistogram {
			nCounts += len(f.samples) * (len(f.bounds) + 1)
		}
	}
	if nFam == 0 {
		return Snapshot{} // nil Families: the JSON export stays "families": null
	}
	snap := Snapshot{Families: make([]FamilySnapshot, 0, nFam)}
	counts := make([]uint64, 0, nCounts)
	for _, f := range r.families {
		if len(f.samples) == 0 {
			continue
		}
		samples := make([]SampleSnapshot, len(f.samples))
		for i, s := range f.samples {
			ss := &samples[i]
			ss.Labels = s.labels
			switch f.kind {
			case KindCounter:
				ss.Value = float64(s.c)
			case KindGauge:
				ss.Value = float64(s.g)
			case KindHistogram:
				n := len(counts)
				counts = append(counts, s.h.counts...)
				ss.Bounds, ss.Counts = s.h.bounds, counts[n:len(counts):len(counts)]
				ss.Sum, ss.Count = s.h.sum, s.h.count
				if s.h.exSet {
					ex := s.h.ex
					ss.Exemplar = &ex
				}
			}
		}
		snap.Families = append(snap.Families, FamilySnapshot{Name: f.name, Help: f.help, Kind: f.kind, Samples: samples})
	}
	return snap
}

// escapeLabel escapes a label value for the Prometheus text format.
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// formatLabels renders {k="v",...}, optionally with an extra trailing
// label (the histogram le).
func formatLabels(labels []Label, extraKey, extraVal string) string {
	if len(labels) == 0 && extraKey == "" {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i, l := range labels {
		if i > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, l.Key, escapeLabel(l.Value))
	}
	if extraKey != "" {
		if len(labels) > 0 {
			b.WriteByte(',')
		}
		fmt.Fprintf(&b, `%s="%s"`, extraKey, extraVal)
	}
	b.WriteByte('}')
	return b.String()
}

// formatValue renders a sample value without exponent notation for
// integers (the common case), matching conventional expositions.
func formatValue(v float64) string {
	if v == float64(int64(v)) {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}

// WritePrometheus emits the snapshot in the Prometheus text
// exposition format (version 0.0.4).
func (s Snapshot) WritePrometheus(w io.Writer) error {
	for _, f := range s.Families {
		if f.Help != "" {
			if _, err := fmt.Fprintf(w, "# HELP %s %s\n", f.Name, f.Help); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintf(w, "# TYPE %s %s\n", f.Name, f.Kind); err != nil {
			return err
		}
		for _, smp := range f.Samples {
			switch f.Kind {
			case KindCounter, KindGauge:
				if _, err := fmt.Fprintf(w, "%s%s %s\n",
					f.Name, formatLabels(smp.Labels, "", ""), formatValue(smp.Value)); err != nil {
					return err
				}
			case KindHistogram:
				var cum uint64
				for i, c := range smp.Counts {
					cum += c
					le := "+Inf"
					if i < len(smp.Bounds) {
						le = fmt.Sprintf("%d", smp.Bounds[i])
					}
					if _, err := fmt.Fprintf(w, "%s_bucket%s %d\n",
						f.Name, formatLabels(smp.Labels, "le", le), cum); err != nil {
						return err
					}
				}
				if _, err := fmt.Fprintf(w, "%s_sum%s %s\n",
					f.Name, formatLabels(smp.Labels, "", ""), formatValue(smp.Sum)); err != nil {
					return err
				}
				if _, err := fmt.Fprintf(w, "%s_count%s %d\n",
					f.Name, formatLabels(smp.Labels, "", ""), smp.Count); err != nil {
					return err
				}
			}
		}
	}
	return nil
}

// WriteJSON emits the snapshot as indented JSON.
func (s Snapshot) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(s)
}

// WriteFile exports the snapshot to path ("-": stdout) as Prometheus
// text exposition or, with asJSON, as an indented JSON snapshot.
func (s Snapshot) WriteFile(path string, asJSON bool) error {
	write := s.WritePrometheus
	if asJSON {
		write = s.WriteJSON
	}
	if path == "-" {
		return write(os.Stdout)
	}
	var buf bytes.Buffer
	if err := write(&buf); err != nil {
		return err
	}
	return os.WriteFile(path, buf.Bytes(), 0o666)
}
