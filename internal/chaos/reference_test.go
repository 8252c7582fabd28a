package chaos

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
)

// referenceCandidate is Delta.Candidate as it was before the overlay
// moved into core.Overlay, verbatim: the statement of "an absent field
// keeps its live value" the -reconfig file was defined by.
func (d *Delta) referenceCandidate(cfg core.Config) core.Config {
	for _, f := range []struct {
		dst *int
		src *int
	}{
		{&cfg.UnicastSize, d.UnicastSize}, {&cfg.MulticastSize, d.MulticastSize},
		{&cfg.ClassSize, d.ClassSize}, {&cfg.MeterSize, d.MeterSize},
		{&cfg.GateSize, d.GateSize}, {&cfg.CBSMapSize, d.CBSMapSize},
		{&cfg.CBSSize, d.CBSSize}, {&cfg.QueueDepth, d.QueueDepth},
		{&cfg.BufferNum, d.BufferNum}, {&cfg.FRERSize, d.FRERSize},
		{&cfg.FRERHistory, d.FRERHistory},
	} {
		if f.src != nil {
			*f.dst = *f.src
		}
	}
	if d.SlotUs != nil {
		cfg.SlotSize = sim.Time(*d.SlotUs) * sim.Microsecond
	}
	return cfg
}

// FuzzLoadDelta loads arbitrary bytes as a -reconfig file. Every loaded
// delta overlays the live configuration exactly as the reference does;
// a file with a negative value, at_us included, or with a key that
// names no field of the delta, is rejected.
func FuzzLoadDelta(f *testing.F) {
	for _, seed := range []string{
		`{"at_us":10000,"unicast_size":64}`, `{"at_us":10000,"slot_us":130}`,
		`{"at_us":0,"frer_size":0,"frer_history":0}`, `{"at_us":-1,"unicast_size":64}`,
		`{"at_us":0,"unicast_size":-5}`, `{"at_us":0,"slot_us":-65}`, `{"at_us":0,"uncast_size":64}`,
		`{"gate_size":4,"cbs_map_size":4,"cbs_size":4,"queue_depth":16,"buffer_num":128}`,
		`{"Meter_Size":8}`, `{"class_size":null}`, `{"meter_size":-1,"meter_size":8}`, `null`, ``,
	} {
		f.Add([]byte(seed))
	}
	var names []string
	for _, fld := range reflect.VisibleFields(reflect.TypeOf(Delta{})) {
		name, _, _ := strings.Cut(fld.Tag.Get("json"), ",")
		names = append(names, name)
	}
	path := filepath.Join(f.TempDir(), "delta.json")
	live := core.PaperCustomizedConfig(3)
	f.Fuzz(func(t *testing.T, body []byte) {
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		d, err := LoadDelta(path)
		if err == nil {
			if got, oerr := core.Overlay(live, d); oerr != nil || got != d.referenceCandidate(live) {
				t.Fatalf("%q: overlay %+v, %v; reference %+v", body, got, oerr, d.referenceCandidate(live))
			}
		}
		var loose Delta
		if json.NewDecoder(bytes.NewReader(body)).Decode(&loose) == nil && err == nil {
			v := reflect.ValueOf(loose)
			for i := range v.NumField() {
				if x := reflect.Indirect(v.Field(i)); x.IsValid() && x.Int() < 0 {
					t.Fatalf("%q: negative %s accepted", body, names[i])
				}
			}
		}
		var keys map[string]json.RawMessage
		if json.NewDecoder(bytes.NewReader(body)).Decode(&keys) == nil && err == nil {
			for k := range keys {
				if !slices.ContainsFunc(names, func(n string) bool { return strings.EqualFold(n, k) }) {
					t.Fatalf("%q: unknown field %q accepted", body, k)
				}
			}
		}
	})
}
