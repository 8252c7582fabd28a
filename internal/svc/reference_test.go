package svc

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
)

// referenceHash is Spec.Hash as it was before the key moved into a
// stack buffer, verbatim: the fmt-built key the cache and every
// X-Spec-Hash header were defined by.
func referenceHash(s *Spec) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf(
		"%s|%d|%d|%d|%d|%d|%d|%d|%d|%d",
		s.Topology, s.Switches, s.TSFlows, s.Hops, s.WireSize,
		s.SlotUs, s.RCMbps, s.BEMbps, s.FRERFlows, s.Seed)))
	return hex.EncodeToString(sum[:])
}

// FuzzSpecHashMatchesReference: the cache key equals the reference over
// arbitrary fields — un-normalized, negative, extreme, and topologies
// holding the separator, format verbs, non-UTF-8 bytes or more bytes
// than the stack buffer.
func FuzzSpecHashMatchesReference(f *testing.F) {
	add := func(s Spec) {
		f.Add(s.Topology, s.Switches, s.TSFlows, s.Hops, s.WireSize, s.SlotUs,
			s.RCMbps, s.BEMbps, s.FRERFlows, s.Seed)
	}
	for _, s := range goldenSpecs() {
		add(s)
	}
	add(Spec{})
	add(Spec{Topology: "a|1|2", Switches: -1, TSFlows: math.MinInt, Seed: math.MaxUint64})
	add(Spec{Topology: "%d%s%!", Switches: math.MaxInt, Hops: -7})
	add(Spec{Topology: "\xff\xfe\x00|", WireSize: 1518, SlotUs: 1000})
	add(Spec{Topology: string(bytes.Repeat([]byte("ring|"), 40)), RCMbps: 1000, BEMbps: 1000})
	f.Fuzz(func(t *testing.T, topo string, sw, ts, hops, wire, slot, rc, be, frer int, seed uint64) {
		s := Spec{Topology: topo, Switches: sw, TSFlows: ts, Hops: hops, WireSize: wire,
			SlotUs: slot, RCMbps: rc, BEMbps: be, FRERFlows: frer, Seed: seed}
		if got, want := s.Hash(), referenceHash(&s); got != want {
			t.Fatalf("Hash(%+v) = %s, reference %s", s, got, want)
		}
	})
}

// FuzzDeriveRequest feeds arbitrary bytes to POST /v1/derive. The
// answer is 200, 400 or 422 — never a 500 or a panic — and every 200
// names only Spec fields and carries the reference key of the spec the
// body normalizes to.
func FuzzDeriveRequest(f *testing.F) {
	for _, seed := range []string{
		specBody,
		`{"topology":"ring","switches":4,"ts_flows":16,"hops":3,"seed":7}`,
		`{"topology":"bidir-ring","switches":4,"ts_flows":8,"frer_flows":2,"rc_mbps":100}`,
		`{"topology":"linear","switches":3,"ts_flows":8}{"topology":"ring"}`,
		`{"topology":"linear","switches":3,"ts_flows":8} trailing`,
		`{"topology":"linear","switches":3,"ts_flows":8`,
		`{"topology":"lin`,
		`{"topology":"linear","switches":1e400,"ts_flows":8}`,
		`{"topology":"linear","switches":3,"ts_flows":99999999999999999999}`,
		`{"topology":"linear","switches":3,"ts_flows":8,"seed":-1}`,
		`{"topology":"moebius","switches":3,"ts_flows":8}`,
		`{"topology":"ring","switches":2,"ts_flows":4}`,
		`{"topology":"bidir-ring","switches":2,"ts_flows":4}`,
		`{"topology":"ring","switches":8,"ts_flows":64,"hop":3}`,
		`{"Topology":"ring","SWITCHES":4,"ts_flows":8}`,
		`[]`, `null`, ``, "\xff",
	} {
		f.Add([]byte(seed))
	}
	var names []string
	for _, fld := range reflect.VisibleFields(reflect.TypeOf(Spec{})) {
		name, _, _ := strings.Cut(fld.Tag.Get("json"), ",")
		names = append(names, name)
	}
	s, err := NewService(Options{Workload: testWorkload()})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { _ = s.Shutdown(context.Background()) })
	h := s.Handler()
	f.Fuzz(func(t *testing.T, body []byte) {
		rec := httptest.NewRecorder()
		h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/derive", bytes.NewReader(body)))
		switch rec.Code {
		case http.StatusOK:
		case http.StatusBadRequest, http.StatusUnprocessableEntity:
			return
		default:
			t.Fatalf("status %d for %q: %s", rec.Code, body, rec.Body)
		}
		var spec Spec
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&spec); err != nil {
			t.Fatalf("200 for an undecodable body %q: %v", body, err)
		}
		if err := spec.Normalize(); err != nil {
			t.Fatalf("200 for an invalid spec %q: %v", body, err)
		}
		var keys map[string]json.RawMessage
		if err := json.NewDecoder(bytes.NewReader(body)).Decode(&keys); err != nil {
			t.Fatalf("200 for a body that is not an object %q: %v", body, err)
		}
		for k := range keys {
			if !slices.ContainsFunc(names, func(n string) bool { return strings.EqualFold(n, k) }) {
				t.Fatalf("%q: unknown field %q accepted", body, k)
			}
		}
		if got, want := rec.Header().Get("X-Spec-Hash"), referenceHash(&spec); got != want {
			t.Fatalf("X-Spec-Hash %s for %q, reference %s", got, body, want)
		}
	})
}

// TestDeriveHeadersMatchReference: over HTTP, every golden spec's miss
// and hit carry the reference key, the cache outcome and the JSON
// content type, and the two bodies are the same bytes.
func TestDeriveHeadersMatchReference(t *testing.T) {
	_, ts := newTestService(t, Options{})
	for i, spec := range goldenSpecs() {
		raw, err := json.Marshal(spec)
		if err != nil {
			t.Fatal(err)
		}
		if err := spec.Normalize(); err != nil {
			t.Fatalf("spec %d: %v", i, err)
		}
		var first []byte
		for _, outcome := range []string{"miss", "hit"} {
			resp, body := postJSON(t, ts.URL+"/v1/derive", string(raw), nil)
			if resp.StatusCode != http.StatusOK {
				t.Fatalf("spec %d %s: %d %s", i, outcome, resp.StatusCode, body)
			}
			if got := resp.Header.Get("X-Spec-Hash"); got != referenceHash(&spec) {
				t.Errorf("spec %d %s: X-Spec-Hash %s, reference %s", i, outcome, got, referenceHash(&spec))
			}
			if got := resp.Header.Get("X-Cache"); got != outcome {
				t.Errorf("spec %d: X-Cache %q, want %q", i, got, outcome)
			}
			if got := resp.Header.Values("Content-Type"); len(got) != 1 || got[0] != "application/json" {
				t.Errorf("spec %d %s: Content-Type %q", i, outcome, got)
			}
			if first == nil {
				first = body
			} else if !bytes.Equal(first, body) {
				t.Errorf("spec %d: hit body differs from miss body", i)
			}
		}
	}
}

// referenceCandidate is ReconfigRequest.Candidate as it was before the
// overlay moved into core.Overlay, verbatim: the statement of "zero
// keeps the live value" POST /v1/reconfig was defined by.
func (r *ReconfigRequest) referenceCandidate(cfg core.Config) core.Config {
	if r.UnicastSize > 0 {
		cfg.UnicastSize = r.UnicastSize
	}
	if r.MulticastSize > 0 {
		cfg.MulticastSize = r.MulticastSize
	}
	if r.ClassSize > 0 {
		cfg.ClassSize = r.ClassSize
	}
	if r.MeterSize > 0 {
		cfg.MeterSize = r.MeterSize
	}
	if r.QueueDepth > 0 {
		cfg.QueueDepth = r.QueueDepth
	}
	if r.BufferNum > 0 {
		cfg.BufferNum = r.BufferNum
	}
	return cfg
}

// FuzzReconfigRequest decodes arbitrary bytes as POST /v1/reconfig
// does. Every accepted body overlays the live configuration exactly as
// the reference does; a body with a negative value, or with a key that
// names no field of the request, is rejected.
func FuzzReconfigRequest(f *testing.F) {
	for _, seed := range []string{
		`{"meter_size":64}`, `{"unicast_size":384,"meter_size":128}`, `{"unicast_size":-5}`,
		`{"meter_size":64,"gate_size":4}`, `{"gate_size":4}`, `{"unicast_size":0}`, `{}`,
		`{"Meter_Size":64}`, `{"buffer_num":-1,"buffer_num":8}`, `{"queue_depth":1e2}`,
		`{"class_size":3} {"class_size":-3}`, `null`, `[]`, ``,
	} {
		f.Add([]byte(seed))
	}
	var names []string
	for _, fld := range reflect.VisibleFields(reflect.TypeOf(ReconfigRequest{})) {
		name, _, _ := strings.Cut(fld.Tag.Get("json"), ",")
		names = append(names, name)
	}
	live := core.PaperCustomizedConfig(3)
	f.Fuzz(func(t *testing.T, body []byte) {
		req, err := decodeDelta(bytes.NewReader(body))
		if err == nil {
			if got, oerr := core.Overlay(live, req); oerr != nil || got != req.referenceCandidate(live) {
				t.Fatalf("%q: overlay %+v, %v; reference %+v", body, got, oerr, req.referenceCandidate(live))
			}
		}
		var loose ReconfigRequest
		if json.NewDecoder(bytes.NewReader(body)).Decode(&loose) == nil && err == nil {
			for _, v := range []int{loose.UnicastSize, loose.MulticastSize, loose.ClassSize,
				loose.MeterSize, loose.QueueDepth, loose.BufferNum} {
				if v < 0 {
					t.Fatalf("%q: negative value accepted", body)
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
