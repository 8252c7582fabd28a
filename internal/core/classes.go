package core

import (
	"cmp"
	"fmt"
	"reflect"
	"strings"
	"sync"

	"github.com/tsnbuilder/tsnbuilder/internal/resource"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

// Class is one resource class: one set_* customization API of Table II
// and everything that reads its parameters.
type Class struct {
	API      string
	Template Template
	// Optional marks a class a design may leave out (set_frer_tbl):
	// it is generated, printed and costed only when its first parameter
	// is positive.
	Optional bool
	// Params are the API's arguments in order.
	Params []Param
	// Sized is how many leading Params the switch's Fit and Resize take
	// for the row; zero for set_frer_tbl, which is resized per FRER
	// table.
	Sized int

	// spare picks what Design.Local takes off the first parameter.
	spare func(Spare) int32
	item  func(n args) resource.Item
	set   func(b *Builder, n args)
}

// Param is one argument of a set_* API.
type Param struct {
	Name string // as DiffConfigs prints it
	JSON string // its key in Config's wire form
	// at indexes (*Config).fields.
	at int
	// label replaces the API name in DiffConfigs for a parameter several
	// APIs share.
	label string
}

// args is a class's parameter values in argument order.
type args [3]int

// The rows of Classes: the switch's (tsnswitch.SwitchTbl …
// tsnswitch.Buffers), then set_frer_tbl.
const (
	setFRERTbl = tsnswitch.Rows
	nClasses   = setFRERTbl + 1
)

var (
	queueNum = Param{"queue_num", "queue_num", 5, "set_gate_tbl/set_queues"}
	portNum  = Param{"port_num", "port_num", 6, "per-port APIs"}
)

// Classes is the one list of the resource classes: the seven of Table II
// in the paper's order, then set_frer_tbl. The Builder, the FPGA report,
// Design.Local, String, DiffConfigs, Overlay and the live
// reconfiguration engine all iterate it.
var Classes = [nClasses]Class{
	tsnswitch.SwitchTbl: {API: "set_switch_tbl", Template: TemplatePacketSwitch, Sized: 2,
		Params: []Param{{"unicast_size", "unicast_size", 0, ""}, {"multicast_size", "multicast_size", 1, ""}},
		spare:  func(s Spare) int32 { return s.Entries },
		item:   func(n args) resource.Item { return resource.SwitchTbl(n[0], n[1]) },
		set:    func(b *Builder, n args) { b.SetSwitchTbl(n[0], n[1]) }},
	tsnswitch.ClassTbl: {API: "set_class_tbl", Template: TemplateIngressFilter, Sized: 1,
		Params: []Param{{"class_size", "class_size", 2, ""}},
		spare:  func(s Spare) int32 { return s.Entries },
		item:   func(n args) resource.Item { return resource.ClassTbl(n[0]) },
		set:    func(b *Builder, n args) { b.SetClassTbl(n[0]) }},
	tsnswitch.MeterTbl: {API: "set_meter_tbl", Template: TemplateIngressFilter, Sized: 1,
		Params: []Param{{"meter_size", "meter_size", 3, ""}},
		spare:  func(s Spare) int32 { return s.Flows },
		item:   func(n args) resource.Item { return resource.MeterTbl(n[0]) },
		set:    func(b *Builder, n args) { b.SetMeterTbl(n[0]) }},
	tsnswitch.GateTbl: {API: "set_gate_tbl", Template: TemplateGateCtrl, Sized: 1,
		Params: []Param{{"gate_size", "gate_size", 4, ""}, queueNum, portNum},
		item:   func(n args) resource.Item { return resource.GateTbl(n[0], n[1], n[2]) },
		set:    func(b *Builder, n args) { b.SetGateTbl(n[0], n[1], n[2]) }},
	tsnswitch.CBSTbl: {API: "set_cbs_tbl", Template: TemplateEgressSched, Sized: 2,
		Params: []Param{{"cbs_map_size", "cbs_map_size", 7, ""}, {"cbs_size", "cbs_size", 8, ""}, portNum},
		item:   func(n args) resource.Item { return resource.CBSTbl(n[0], n[1], n[2]) },
		set:    func(b *Builder, n args) { b.SetCBSTbl(n[0], n[1], n[2]) }},
	tsnswitch.Queues: {API: "set_queues", Template: TemplateGateCtrl, Sized: 1,
		Params: []Param{{"queue_depth", "queue_depth", 9, ""}, queueNum, portNum},
		item:   func(n args) resource.Item { return resource.Queues(n[0], n[1], n[2]) },
		set:    func(b *Builder, n args) { b.SetQueues(n[0], n[1], n[2]) }},
	tsnswitch.Buffers: {API: "set_buffers", Template: TemplateGateCtrl, Sized: 1,
		Params: []Param{{"buffer_num", "buffer_num", 10, ""}, portNum},
		item:   func(n args) resource.Item { return resource.Buffers(n[0], n[1]) },
		set:    func(b *Builder, n args) { b.SetBuffers(n[0], n[1]) }},
	setFRERTbl: {API: "set_frer_tbl", Template: TemplateIngressFilter, Optional: true,
		Params: []Param{{"frer_size", "frer_size", 11, ""}, {"history_len", "frer_history", 12, ""}},
		item:   func(n args) resource.Item { return resource.FRERTbl(n[0], n[1]) },
		set:    func(b *Builder, n args) { b.SetFRERTbl(n[0], n[1]) }},
}

// fields is where c holds each class parameter, in Config's field order.
// A Param indexes it instead of carrying a closure, since a call through
// a func value moves the config it is handed to the heap, and Build, the
// FPGA report and Design.Local run on every request. It inlines at every
// call, which keeps the array on the stack.
func (c *Config) fields() *[13]*int {
	return &[...]*int{&c.UnicastSize, &c.MulticastSize, &c.ClassSize, &c.MeterSize, &c.GateSize, &c.QueueNum,
		&c.PortNum, &c.CBSMapSize, &c.CBSSize, &c.QueueDepth, &c.BufferNum, &c.FRERSize, &c.FRERHistory}
}

// Of returns p's storage in c.
func (p *Param) Of(c *Config) *int { return c.fields()[p.at] }

// read returns the first n parameters as f holds them.
func (r *Class) read(f *[13]*int, n int) (a args) {
	for i, p := range r.Params[:n] {
		a[i] = *f[p.at]
	}
	return a
}

// Sizes returns, row by row of Classes, the arguments of the switch's
// Fit and Resize for the row as a switch with config c holds them, zero
// past the row's Sized (a core.Config reads through Config.Switch). It
// gathers through sizedAt instead of walking the rows: the
// reconfiguration engine calls it several times per switch per commit.
func Sizes(c *tsnswitch.Config) (s [nClasses][2]int) {
	v := [...]int{c.UnicastSize, c.MulticastSize, c.ClassSize, c.MeterSize, c.GateSize, 0,
		0, c.CBSMapSize, c.CBSSize, c.QueueDepth, c.BuffersPerPort, 0, 0, 0}
	for i, at := range &sizedAt {
		s[i] = [2]int{v[at[0]], v[at[1]]}
	}
	return s
}

// sizedAt is, row by row, where Sizes' values (in the order of fields)
// hold each argument of the switch's Fit and Resize for the row; 13,
// the trailing zero, past its Sized.
var sizedAt = func() (at [nClasses][2]int) {
	for i, r := range &Classes {
		at[i] = [2]int{13, 13}
		for j, p := range r.Params[:r.Sized] {
			at[i][j] = p.at
		}
	}
	return at
}()

// in reports whether c includes the class: always, unless it is
// optional and its first parameter is not positive.
func (r *Class) in(c *Config) bool { return !r.Optional || *r.Params[0].Of(c) > 0 }

// String renders the configuration as the customization-API call
// sequence that reproduces it.
func (c Config) String() string {
	var b strings.Builder
	for i := range Classes {
		if r := &Classes[i]; r.in(&c) {
			b.WriteString(r.API)
			sep := "("
			for _, p := range r.Params {
				fmt.Fprintf(&b, "%s%d", sep, *p.Of(&c))
				sep = ", "
			}
			b.WriteString(")\n")
		}
	}
	fmt.Fprintf(&b, "timing: slot=%v rate=%dMbps", c.SlotSize, int64(c.LinkRate)/1_000_000)
	return b.String()
}

// DiffConfigs reports the parameter-level differences between two
// configurations — the "regulate the related parameters and reuse
// these templates" step of §III.C's synthesis stage. An empty result
// means the designs are identical and nothing needs rebuilding.
func DiffConfigs(old, new Config) []string {
	var out []string
	add := func(api, field string, o, n any) {
		out = append(out, fmt.Sprintf("%s: %s %v → %v", api, field, o, n))
	}
	of, nf := old.fields(), new.fields()
	var seen [len(of)]bool
	for i := range Classes {
		for _, p := range Classes[i].Params {
			if o, n := *of[p.at], *nf[p.at]; o != n && !seen[p.at] {
				add(cmp.Or(p.label, Classes[i].API), p.Name, o, n)
			}
			seen[p.at] = true
		}
	}
	if old.SlotSize != new.SlotSize {
		add("timing", "slot_size", old.SlotSize, new.SlotSize)
	}
	if old.LinkRate != new.LinkRate {
		add("timing", "link_rate", old.LinkRate, new.LinkRate)
	}
	return out
}

// Overlay returns cfg with the parameters a request carries written
// over it: the one reading of POST /v1/reconfig's body and of tsnsim's
// -reconfig file. req points to a struct whose fields are named by
// their JSON tags. An int field carries its value unless it is zero
// (zero keeps the live value), a pointer field unless it is nil (absent
// keeps it), and slot_us carries SlotSize in µs. A negative value is an
// error naming the field; a field that names no parameter (at_us) is
// only checked for that.
func Overlay(cfg Config, req any) (Config, error) {
	v, f := reflect.ValueOf(req).Elem(), cfg.fields()
	for i, w := range wireOf(v.Type()) {
		x := v.Field(i)
		if x.Kind() == reflect.Pointer && !x.IsNil() {
			x = x.Elem()
		} else if x.IsZero() {
			continue
		}
		switch n := x.Int(); {
		case n < 0:
			return cfg, fmt.Errorf("negative %s %d", w.name, n)
		case w.name == "slot_us":
			cfg.SlotSize = sim.Time(n) * sim.Microsecond
		case w.at >= 0:
			*f[w.at] = int(n)
		}
	}
	return cfg, nil
}

// wireField is a request field's JSON name and its index in
// (*Config).fields, or -1.
type wireField struct {
	name string
	at   int
}

// wires caches wireOf by request type, filled once per type: reading a
// struct tag allocates.
var wires sync.Map

func wireOf(t reflect.Type) []wireField {
	if w, ok := wires.Load(t); ok {
		return w.([]wireField)
	}
	w := make([]wireField, t.NumField())
	for i := range w {
		name, _, _ := strings.Cut(t.Field(i).Tag.Get("json"), ",")
		w[i] = wireField{name, -1}
		for _, r := range &Classes {
			for _, p := range r.Params {
				if p.JSON == name {
					w[i].at = p.at
				}
			}
		}
	}
	wires.Store(t, w)
	return w
}
