package faults

import (
	"os"
	"reflect"
	"strings"
	"testing"
)

// TestParseNewKinds covers the buffer-leak and reconfig-fail kinds.
func TestParseNewKinds(t *testing.T) {
	sc, err := Parse(strings.NewReader(`{
		"faults": [
			{"at_us": 10, "kind": "buffer-leak", "switch": 1, "port": 0, "slots": 4},
			{"at_us": 20, "kind": "reconfig-fail"},
			{"at_us": 30, "kind": "reconfig-fail", "op": 2}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faults) != 3 {
		t.Fatalf("parsed %d faults", len(sc.Faults))
	}
	if sc.Faults[1].Op != nil {
		t.Fatal("absent op must stay nil")
	}
	if sc.Faults[2].Op == nil || *sc.Faults[2].Op != 2 {
		t.Fatal("op 2 not parsed")
	}
}

// TestValidateErrorPaths is the table-driven error-path suite: every
// rejection must carry a descriptive message naming the problem, so a
// scenario typo is diagnosable from the error alone.
func TestValidateErrorPaths(t *testing.T) {
	cases := []struct {
		name    string
		json    string
		wantErr string
	}{
		{
			name:    "unknown kind",
			json:    `{"faults": [{"at_us": 0, "kind": "link-sever"}]}`,
			wantErr: `unknown kind "link-sever"`,
		},
		{
			name:    "empty kind",
			json:    `{"faults": [{"at_us": 0}]}`,
			wantErr: `unknown kind ""`,
		},
		{
			name:    "negative time",
			json:    `{"faults": [{"at_us": -5, "kind": "gm-kill"}]}`,
			wantErr: "negative at_us -5",
		},
		{
			name:    "irrelevant prob on link-down",
			json:    `{"faults": [{"at_us": 0, "kind": "link-down", "a": 0, "b": 1, "prob": 0.5}]}`,
			wantErr: `field "prob" is not valid for kind "link-down"`,
		},
		{
			name:    "irrelevant switch on link-loss",
			json:    `{"faults": [{"at_us": 0, "kind": "link-loss", "a": 0, "b": 1, "prob": 0.5, "duration_us": 10, "switch": 2}]}`,
			wantErr: `field "switch" is not valid for kind "link-loss"`,
		},
		{
			name:    "irrelevant link selector on clock-step",
			json:    `{"faults": [{"at_us": 0, "kind": "clock-step", "switch": 1, "step_ns": 100, "a": 0}]}`,
			wantErr: `field "a" is not valid for kind "clock-step"`,
		},
		{
			name:    "irrelevant target on gm-kill",
			json:    `{"faults": [{"at_us": 0, "kind": "gm-kill", "switch": 3}]}`,
			wantErr: `field "switch" is not valid for kind "gm-kill"`,
		},
		{
			name:    "irrelevant duration on buffer-leak",
			json:    `{"faults": [{"at_us": 0, "kind": "buffer-leak", "switch": 0, "port": 0, "slots": 2, "duration_us": 50}]}`,
			wantErr: `field "duration_us" is not valid for kind "buffer-leak"`,
		},
		{
			name:    "irrelevant op on gate-close",
			json:    `{"faults": [{"at_us": 0, "kind": "gate-close", "switch": 0, "port": 0, "duration_us": 5, "op": 1}]}`,
			wantErr: `field "op" is not valid for kind "gate-close"`,
		},
		{
			name:    "irrelevant slots on reconfig-fail",
			json:    `{"faults": [{"at_us": 0, "kind": "reconfig-fail", "slots": 3}]}`,
			wantErr: `field "slots" is not valid for kind "reconfig-fail"`,
		},
		{
			name:    "negative reconfig-fail op",
			json:    `{"faults": [{"at_us": 0, "kind": "reconfig-fail", "op": -1}]}`,
			wantErr: "reconfig-fail op -1 negative",
		},
		{
			name:    "buffer-leak missing port",
			json:    `{"faults": [{"at_us": 0, "kind": "buffer-leak", "switch": 0, "slots": 2}]}`,
			wantErr: "buffer-leak needs port and positive slots",
		},
		{
			name:    "buffer-leak zero slots",
			json:    `{"faults": [{"at_us": 0, "kind": "buffer-leak", "switch": 0, "port": 0}]}`,
			wantErr: "buffer-leak needs port and positive slots",
		},
		{
			name:    "buffer-leak missing switch",
			json:    `{"faults": [{"at_us": 0, "kind": "buffer-leak", "port": 0, "slots": 2}]}`,
			wantErr: "buffer-leak needs switch",
		},
		{
			name:    "malformed: string where number expected",
			json:    `{"faults": [{"at_us": "soon", "kind": "gm-kill"}]}`,
			wantErr: "cannot unmarshal",
		},
		{
			name:    "malformed: unknown json field",
			json:    `{"faults": [{"at_us": 0, "kind": "gm-kill", "severity": "high"}]}`,
			wantErr: `unknown field "severity"`,
		},
		{
			name:    "at_us past the simulated clock",
			json:    `{"faults": [{"at_us": 9223372036854776, "kind": "link-down", "a": 1, "b": 2}]}`,
			wantErr: "fault 0: active window ends past 9223372036854775µs, the end of the simulated clock",
		},
		{
			name:    "loss recovery past the simulated clock",
			json:    `{"faults": [{"at_us": 50, "kind": "link-loss", "a": 1, "b": 2, "prob": 0.5, "duration_us": 9223372036854775807}]}`,
			wantErr: "the end of the simulated clock",
		},
		{
			name:    "gate restore past the simulated clock",
			json:    `{"faults": [{"at_us": 50, "kind": "gate-close", "switch": 1, "port": 0, "duration_us": 9223372036854775807}]}`,
			wantErr: "the end of the simulated clock",
		},
		{
			name: "flap cycles wrap past the simulated clock",
			json: `{"faults": [
				{"at_us": 0, "kind": "link-flap", "a": 0, "b": 1, "period_us": 4611686018427387904, "count": 4},
				{"at_us": 10, "kind": "link-flap", "a": 0, "b": 1, "period_us": 4611686018427387904, "count": 4}]}`,
			wantErr: "the end of the simulated clock",
		},
		{
			name:    "fault index in message",
			json:    `{"faults": [{"at_us": 0, "kind": "gm-kill"}, {"at_us": 0, "kind": "bogus"}]}`,
			wantErr: "fault 1",
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.json))
			if err == nil {
				t.Fatalf("accepted: %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.wantErr) {
				t.Fatalf("error %q does not contain %q", err, tc.wantErr)
			}
		})
	}
}

// TestEveryKindRejectsForeignField sweeps the whole matrix: for each
// kind, a field from another kind's vocabulary must be rejected with
// the field named in the error.
// TestParseReconfigChaosKinds covers the transient and wedge reconfig
// kinds the chaos engine injects.
func TestParseReconfigChaosKinds(t *testing.T) {
	sc, err := Parse(strings.NewReader(`{
		"faults": [
			{"at_us": 10, "kind": "reconfig-transient", "op": 1, "count": 3},
			{"at_us": 20, "kind": "reconfig-wedge", "op": 2},
			{"at_us": 30, "kind": "reconfig-wedge"}
		]
	}`))
	if err != nil {
		t.Fatal(err)
	}
	if len(sc.Faults) != 3 {
		t.Fatalf("parsed %d faults", len(sc.Faults))
	}
	if sc.Faults[0].Count != 3 {
		t.Fatalf("count = %d", sc.Faults[0].Count)
	}
	if sc.Faults[1].Op == nil || *sc.Faults[1].Op != 2 {
		t.Fatal("wedge op 2 not parsed")
	}
	for _, bad := range []struct{ json, want string }{
		{`{"faults": [{"at_us": 0, "kind": "reconfig-transient", "op": -1}]}`, "reconfig-transient op -1 negative"},
		{`{"faults": [{"at_us": 0, "kind": "reconfig-transient", "count": -2}]}`, "reconfig-transient count -2 negative"},
		{`{"faults": [{"at_us": 0, "kind": "reconfig-wedge", "op": -3}]}`, "reconfig-wedge op -3 negative"},
		{`{"faults": [{"at_us": 0, "kind": "reconfig-wedge", "count": 2}]}`, `field "count" is not valid for kind "reconfig-wedge"`},
	} {
		_, err := Parse(strings.NewReader(bad.json))
		if err == nil || !strings.Contains(err.Error(), bad.want) {
			t.Errorf("error %v does not contain %q", err, bad.want)
		}
	}
}

// TestDuplicateTargeting: two faults of the same kind aimed at the same
// target with overlapping active windows are a scenario bug — the
// engine would double-schedule them — so Validate rejects the pair,
// naming both fault indices.
func TestDuplicateTargeting(t *testing.T) {
	reject := []struct {
		name string
		json string
		want string
	}{
		{
			name: "same link-down instant",
			json: `{"faults": [
				{"at_us": 100, "kind": "link-down", "a": 1, "b": 2},
				{"at_us": 100, "kind": "link-down", "a": 1, "b": 2}]}`,
			want: "fault 1 duplicates fault 0",
		},
		{
			name: "overlapping loss windows",
			json: `{"faults": [
				{"at_us": 100, "kind": "link-loss", "a": 1, "b": 2, "prob": 0.5, "duration_us": 500},
				{"at_us": 400, "kind": "link-loss", "a": 1, "b": 2, "prob": 0.1, "duration_us": 50}]}`,
			want: "fault 1 duplicates fault 0",
		},
		{
			name: "flap cycles overlap a later flap",
			json: `{"faults": [
				{"at_us": 0, "kind": "link-flap", "a": 0, "b": 1, "period_us": 100, "count": 5},
				{"at_us": 450, "kind": "link-flap", "a": 0, "b": 1, "period_us": 100, "count": 2}]}`,
			want: "fault 1 duplicates fault 0",
		},
		{
			name: "same host link",
			json: `{"faults": [
				{"at_us": 10, "kind": "link-down", "host": 104},
				{"at_us": 10, "kind": "link-down", "host": 104}]}`,
			want: "on host104",
		},
		{
			name: "same switch port gate window",
			json: `{"faults": [
				{"at_us": 0, "kind": "gate-close", "switch": 2, "port": 1, "duration_us": 100},
				{"at_us": 50, "kind": "gate-close", "switch": 2, "port": 1, "duration_us": 100}]}`,
			want: "on sw2.p1",
		},
		{
			name: "double-armed reconfig failure",
			json: `{"faults": [
				{"at_us": 5, "kind": "reconfig-fail"},
				{"at_us": 5, "kind": "reconfig-fail", "op": 3}]}`,
			want: "on global",
		},
	}
	for _, tc := range reject {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(strings.NewReader(tc.json))
			if err == nil {
				t.Fatalf("accepted duplicate scenario: %s", tc.json)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}

	accept := []struct {
		name string
		json string
	}{
		{
			name: "same link, disjoint windows",
			json: `{"faults": [
				{"at_us": 100, "kind": "link-loss", "a": 1, "b": 2, "prob": 0.5, "duration_us": 100},
				{"at_us": 200, "kind": "link-loss", "a": 1, "b": 2, "prob": 0.1, "duration_us": 100}]}`,
		},
		{
			name: "same instant, different links",
			json: `{"faults": [
				{"at_us": 100, "kind": "link-down", "a": 1, "b": 2},
				{"at_us": 100, "kind": "link-down", "a": 2, "b": 3}]}`,
		},
		{
			name: "same link, opposite directions",
			json: `{"faults": [
				{"at_us": 100, "kind": "link-down", "a": 1, "b": 2},
				{"at_us": 100, "kind": "link-down", "a": 2, "b": 1}]}`,
		},
		{
			name: "different kinds share target and window",
			json: `{"faults": [
				{"at_us": 100, "kind": "link-loss", "a": 1, "b": 2, "prob": 0.5, "duration_us": 100},
				{"at_us": 120, "kind": "link-corrupt", "a": 1, "b": 2, "prob": 0.1, "duration_us": 10}]}`,
		},
		{
			name: "down then up on the same link",
			json: `{"faults": [
				{"at_us": 100, "kind": "link-down", "a": 1, "b": 2},
				{"at_us": 200, "kind": "link-up", "a": 1, "b": 2}]}`,
		},
	}
	for _, tc := range accept {
		t.Run(tc.name, func(t *testing.T) {
			if _, err := Parse(strings.NewReader(tc.json)); err != nil {
				t.Fatalf("rejected legitimate scenario: %v", err)
			}
		})
	}
}

func TestEveryKindRejectsForeignField(t *testing.T) {
	foreign := map[string]string{
		KindLinkDown:      `"slots": 1`,
		KindLinkUp:        `"step_ns": 1`,
		KindLinkFlap:      `"prob": 0.5`,
		KindLinkLoss:      `"count": 2`,
		KindLinkCorrupt:   `"drift_ppb": 1`,
		KindClockStep:     `"duration_us": 1`,
		KindClockDrift:    `"host": 1`,
		KindGMKill:        `"port": 1`,
		KindNodeKill:      `"b": 1`,
		KindBufferExhaust: `"prob": 0.5`,
		KindGateClose:     `"slots": 1`,
		KindBufferLeak:    `"op": 1`,
		KindReconfigFail:  `"switch": 1`,

		KindReconfigTransient: `"switch": 1`,
		KindReconfigWedge:     `"slots": 1`,
	}
	if len(foreign) != len(kinds) {
		t.Fatalf("matrix covers %d kinds, package has %d", len(foreign), len(kinds))
	}
	for kind, field := range foreign {
		doc := `{"faults": [{"at_us": 0, "kind": "` + kind + `", ` + field + `}]}`
		_, err := Parse(strings.NewReader(doc))
		if err == nil {
			t.Errorf("%s accepted foreign field %s", kind, field)
			continue
		}
		if !strings.Contains(err.Error(), "is not valid for kind") {
			t.Errorf("%s: error %q is not a field-validity rejection", kind, err)
		}
	}
}

// TestReadmeKindTable: README's fault-kind table lists exactly the
// kind table's rows, in order, and its "Drawn on" column names each
// row's campaign draws.
func TestReadmeKindTable(t *testing.T) {
	raw, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, table, ok := strings.Cut(string(raw), "| Kind | Fields | Drawn on | Effect |\n|---|---|---|---|\n")
	if !ok {
		t.Fatal("README has no fault-kind table")
	}
	var got, want []string
	for _, line := range strings.Split(table, "\n") {
		cells := strings.Split(line, " | ")
		if !strings.HasPrefix(line, "| `") || len(cells) != 4 {
			break
		}
		got = append(got, strings.Trim(cells[0], "| `")+": "+cells[2])
	}
	aimed := [...]string{AimTrunk: "`a`+`b`", AimHost: "`host`", AimSwitch: "`switch`"}
	for _, k := range kinds {
		var on []string
		for _, a := range k.aims {
			s := aimed[a]
			if a == AimSwitch && k.fields&fPort != 0 {
				s += "+`port`"
			}
			on = append(on, s)
		}
		if on == nil {
			on = []string{"—"}
		}
		want = append(want, k.name+": "+strings.Join(on, " or "))
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("README kind: drawn-on rows = %q\nkind table               = %q", got, want)
	}
}
