package core

import (
	"cmp"
	"reflect"
	"slices"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

// TestEveryParamReachesEveryConsumer moves each parameter of each row
// of Classes, one at a time, through the row's own accessor, and checks
// that every consumer of the table sees it: DiffConfigs reports one line
// under the row's API (or the label of a parameter several APIs share),
// String changes, the Builder carries it into the Design, the FPGA report
// changes the item of every row taking the parameter and no other,
// Design.Local takes a switch's spare off it only if it heads a row with
// one, and the overlay writes it from an int field and from a pointer
// field named by its JSON key.
func TestEveryParamReachesEveryConsumer(t *testing.T) {
	base := PaperCustomizedConfig(2)
	base.FRERSize, base.FRERHistory = 4, 16
	before := FPGA{}.MemoryCost(base).Items
	if len(before) != len(Classes) {
		t.Fatalf("%d report items for %d classes", len(before), len(Classes))
	}
	sp := Spare{Entries: 1, Flows: 2}
	for _, r := range Classes {
		for _, p := range r.Params {
			t.Run(r.API+"/"+p.Name, func(t *testing.T) {
				cfg := base
				*p.Of(&cfg) += 3
				diff := DiffConfigs(base, cfg)
				if want := cmp.Or(p.label, r.API) + ": " + p.Name + " "; len(diff) != 1 || !strings.HasPrefix(diff[0], want) {
					t.Errorf("DiffConfigs = %q, want one line starting %q", diff, want)
				}
				if cfg.String() == base.String() {
					t.Error("String unchanged")
				}
				d, err := BuilderFor(cfg, nil).Build()
				if err != nil || d.Config != cfg {
					t.Fatalf("Builder: %v, config %+v, want %+v", err, d, cfg)
				}
				after := d.Report.Items
				for i, q := range Classes {
					takes := slices.ContainsFunc(q.Params, func(x Param) bool { return x.at == p.at })
					if changed := after[i] != before[i]; changed != takes {
						t.Errorf("%s item changed %v, want %v", q.API, changed, takes)
					}
				}
				d.spare = []Spare{sp}
				local, want := d.Local(cfg, 0), cfg
				for _, q := range Classes {
					if q.spare != nil {
						*q.Params[0].Of(&want) -= int(q.spare(sp))
					}
				}
				if local != want {
					t.Errorf("Local = %+v, want %+v", local, want)
				}
				for _, typ := range []reflect.Type{reflect.TypeOf(0), reflect.TypeOf(new(int))} {
					req := reflect.New(reflect.StructOf([]reflect.StructField{
						{Name: "V", Type: typ, Tag: reflect.StructTag(`json:"` + p.JSON + `,omitempty"`)}}))
					v := reflect.ValueOf(*p.Of(&cfg))
					if typ.Kind() == reflect.Pointer {
						v = reflect.New(typ.Elem())
						v.Elem().SetInt(int64(*p.Of(&cfg)))
					}
					req.Elem().Field(0).Set(v)
					if got, err := Overlay(base, req.Interface()); err != nil || got != cfg {
						t.Errorf("Overlay from %v field = %+v, %v; want %+v", typ, got, err, cfg)
					}
				}
			})
		}
	}
}

// TestResizeMovesItsRowOfSizes resizes a switch row by row of Classes
// through the switch's Fit/Resize pair: a refused size moves no row of
// Sizes, and an accepted one moves exactly the row it names, by the
// row's Sized parameters.
func TestResizeMovesItsRowOfSizes(t *testing.T) {
	d, err := BuilderFor(PaperCustomizedConfig(2), nil).Build()
	if err != nil {
		t.Fatal(err)
	}
	sw := tsnswitch.New(sim.NewEngine(), d.SwitchConfig(0, 2))
	sizes := func() [nClasses][2]int {
		c := sw.Config()
		return Sizes(&c)
	}
	for row, r := range Classes[:setFRERTbl] {
		want := sizes()
		if err := sw.Resize(row, [2]int{-1, -1}); err == nil || sizes() != want {
			t.Fatalf("%s: Resize to -1 returned %v and moved Sizes to %v, want %v", r.API, err, sizes(), want)
		}
		for j := range r.Sized {
			want[row][j]++
		}
		if err := sw.Resize(row, want[row]); err != nil || sizes() != want {
			t.Fatalf("%s: Resize(%v) returned %v and moved Sizes to %v, want %v", r.API, want[row], err, sizes(), want)
		}
	}
}
