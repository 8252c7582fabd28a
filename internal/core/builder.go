package core

import (
	"errors"
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/frer"
	"github.com/tsnbuilder/tsnbuilder/internal/resource"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
)

// Config is the complete resource specification a Builder accumulates:
// one value per customization-API parameter of Table II, plus the gate
// timing the Gate Ctrl template needs.
type Config struct {
	// set_switch_tbl
	UnicastSize   int `json:"unicast_size"`
	MulticastSize int `json:"multicast_size"`
	// set_class_tbl
	ClassSize int `json:"class_size"`
	// set_meter_tbl
	MeterSize int `json:"meter_size"`
	// set_gate_tbl
	GateSize int `json:"gate_size"`
	QueueNum int `json:"queue_num"`
	PortNum  int `json:"port_num"`
	// set_cbs_tbl
	CBSMapSize int `json:"cbs_map_size"`
	CBSSize    int `json:"cbs_size"`
	// set_queues
	QueueDepth int `json:"queue_depth"`
	// set_buffers
	BufferNum int `json:"buffer_num"`
	// set_frer_tbl — the eighth resource class (802.1CB sequence
	// recovery), optional: zero means no FRER hardware is generated.
	FRERSize    int `json:"frer_size"`
	FRERHistory int `json:"frer_history"`

	// SlotSize is the gate time slot (65 µs in the evaluation).
	SlotSize sim.Time `json:"slot_ns"`
	// LinkRate is the port line rate (1 Gbps in the evaluation).
	LinkRate ethernet.Rate `json:"link_rate_bps"`
}

// Builder accumulates a Config through the Table II APIs. Methods
// chain; errors accumulate and surface at Build, matching how a
// hardware generator validates a whole parameter file.
type Builder struct {
	platform Platform
	cfg      Config
	called   [nClasses]bool
	selected [templateCount]bool
	errs     []error
}

// NewBuilder starts a customization against platform (nil selects the
// default FPGA platform). All five templates start selected; use
// Select to restrict.
func NewBuilder(platform Platform) *Builder {
	if platform == nil {
		platform = FPGA{}
	}
	b := &Builder{platform: platform}
	for t := range b.selected {
		b.selected[t] = true
	}
	b.cfg.SlotSize = 65 * sim.Microsecond
	b.cfg.LinkRate = ethernet.Gbps
	return b
}

// Select restricts the design to the given templates, ignoring any
// that is not one of the five. APIs touching an unselected template
// fail at Build.
func (b *Builder) Select(ts ...Template) *Builder {
	b.selected = [templateCount]bool{}
	for _, t := range ts {
		if t >= 0 && t < templateCount {
			b.selected[t] = true
		}
	}
	return b
}

func (b *Builder) errf(format string, args ...any) {
	b.errs = append(b.errs, fmt.Errorf(format, args...))
}

// SetSwitchTbl implements set_switch_tbl(unicast_size, multicast_size).
func (b *Builder) SetSwitchTbl(unicastSize, multicastSize int) *Builder {
	b.called[tsnswitch.SwitchTbl] = true
	if unicastSize < 0 || multicastSize < 0 {
		b.errf("core: set_switch_tbl negative size (%d, %d)", unicastSize, multicastSize)
	}
	b.cfg.UnicastSize, b.cfg.MulticastSize = unicastSize, multicastSize
	return b
}

// SetClassTbl implements set_class_tbl(class_size).
func (b *Builder) SetClassTbl(classSize int) *Builder {
	b.called[tsnswitch.ClassTbl] = true
	if classSize < 0 {
		b.errf("core: set_class_tbl negative size %d", classSize)
	}
	b.cfg.ClassSize = classSize
	return b
}

// SetMeterTbl implements set_meter_tbl(meter_size).
func (b *Builder) SetMeterTbl(meterSize int) *Builder {
	b.called[tsnswitch.MeterTbl] = true
	if meterSize < 0 {
		b.errf("core: set_meter_tbl negative size %d", meterSize)
	}
	b.cfg.MeterSize = meterSize
	return b
}

// SetGateTbl implements set_gate_tbl(gate_size, queue_num, port_num).
func (b *Builder) SetGateTbl(gateSize, queueNum, portNum int) *Builder {
	b.called[tsnswitch.GateTbl] = true
	if gateSize < 2 {
		b.errf("core: set_gate_tbl gate_size %d < 2", gateSize)
	}
	b.checkQueueNum("set_gate_tbl", queueNum)
	b.checkPortNum("set_gate_tbl", portNum)
	b.cfg.GateSize = gateSize
	return b
}

// SetCBSTbl implements set_cbs_tbl(cbs_map_size, cbs_size, port_num).
func (b *Builder) SetCBSTbl(cbsMapSize, cbsSize, portNum int) *Builder {
	b.called[tsnswitch.CBSTbl] = true
	if cbsMapSize < 0 || cbsSize < 0 {
		b.errf("core: set_cbs_tbl negative size (%d, %d)", cbsMapSize, cbsSize)
	}
	b.checkPortNum("set_cbs_tbl", portNum)
	b.cfg.CBSMapSize, b.cfg.CBSSize = cbsMapSize, cbsSize
	return b
}

// SetQueues implements set_queues(queue_depth, queue_num, port_num).
func (b *Builder) SetQueues(queueDepth, queueNum, portNum int) *Builder {
	b.called[tsnswitch.Queues] = true
	if queueDepth <= 0 {
		b.errf("core: set_queues non-positive depth %d", queueDepth)
	}
	b.checkQueueNum("set_queues", queueNum)
	b.checkPortNum("set_queues", portNum)
	b.cfg.QueueDepth = queueDepth
	return b
}

// SetBuffers implements set_buffers(buffer_num, port_num).
func (b *Builder) SetBuffers(bufferNum, portNum int) *Builder {
	b.called[tsnswitch.Buffers] = true
	if bufferNum <= 0 {
		b.errf("core: set_buffers non-positive count %d", bufferNum)
	}
	b.checkPortNum("set_buffers", portNum)
	b.cfg.BufferNum = bufferNum
	return b
}

// SetFRERTbl implements set_frer_tbl(frer_size, history_len), the
// eighth customization API: an 802.1CB sequence-recovery table of
// frer_size streams with a history_len-bit window per entry. Unlike
// the paper's seven APIs it is optional — designs without redundant
// streams simply never call it and pay zero BRAM.
func (b *Builder) SetFRERTbl(frerSize, historyLen int) *Builder {
	b.called[setFRERTbl] = true
	if frerSize < 0 {
		b.errf("core: set_frer_tbl negative size %d", frerSize)
	}
	if frerSize > 0 && (historyLen < 1 || historyLen > frer.MaxHistory) {
		b.errf("core: set_frer_tbl history %d out of [1,%d]", historyLen, frer.MaxHistory)
	}
	b.cfg.FRERSize, b.cfg.FRERHistory = frerSize, historyLen
	return b
}

// SetTiming adjusts the gate slot size and port line rate (defaults:
// 65 µs, 1 Gbps).
func (b *Builder) SetTiming(slot sim.Time, rate ethernet.Rate) *Builder {
	if slot <= 0 || rate <= 0 {
		b.errf("core: SetTiming invalid (%v, %d)", slot, rate)
	}
	b.cfg.SlotSize, b.cfg.LinkRate = slot, rate
	return b
}

// checkPortNum enforces that every per-port API names the same
// port_num.
func (b *Builder) checkPortNum(api string, portNum int) {
	if portNum <= 0 {
		b.errf("core: %s non-positive port_num %d", api, portNum)
		return
	}
	if b.cfg.PortNum != 0 && b.cfg.PortNum != portNum {
		b.errf("core: %s port_num %d conflicts with earlier %d", api, portNum, b.cfg.PortNum)
		return
	}
	b.cfg.PortNum = portNum
}

func (b *Builder) checkQueueNum(api string, queueNum int) {
	if queueNum <= 0 || queueNum > 16 {
		b.errf("core: %s queue_num %d out of range", api, queueNum)
		return
	}
	if b.cfg.QueueNum != 0 && b.cfg.QueueNum != queueNum {
		b.errf("core: %s queue_num %d conflicts with earlier %d", api, queueNum, b.cfg.QueueNum)
		return
	}
	b.cfg.QueueNum = queueNum
}

// Check validates the accumulated configuration as Build does, without
// building: every API's arguments were valid, every set_* API called
// has its template selected, and every selected template's APIs were
// called (set_frer_tbl is optional).
func (b *Builder) Check() error {
	errs := append([]error(nil), b.errs...)
	for _, t := range AllTemplates() {
		for i := range Classes {
			switch r := &Classes[i]; {
			case r.Template != t:
			case b.called[i] && !b.selected[t]:
				errs = append(errs, fmt.Errorf("core: %s called but template %q not selected", r.API, t))
			case !b.called[i] && b.selected[t] && !r.Optional:
				errs = append(errs, fmt.Errorf("core: template %q selected but %s never called", t, r.API))
			}
		}
	}
	return errors.Join(errs...)
}

// Build validates the accumulated configuration (Check) and produces
// the Design.
func (b *Builder) Build() (*Design, error) {
	if err := b.Check(); err != nil {
		return nil, err
	}
	templates := make([]Template, 0, templateCount)
	for t, on := range b.selected {
		if on {
			templates = append(templates, Template(t))
		}
	}
	return &Design{
		Config:    b.cfg,
		Templates: templates,
		Platform:  b.platform,
		Report:    b.platform.MemoryCost(b.cfg),
	}, nil
}

// Design is a completed customization: the configuration, the selected
// templates and the platform memory report.
type Design struct {
	Config    Config
	Templates []Template
	Platform  Platform
	Report    *resource.Report
	// spare is set by Derivation.Design only: a hand-written design has
	// none and sizes every switch alike.
	spare []Spare
}

// Local returns what switch id holds when cfg is in force network-wide:
// cfg minus the spare the derivation found for that switch in the three
// per-flow tables, clamped at zero. It depends on (d, cfg) only, not on
// what the switch held before, so rollback, verification and a recovery
// that replays only the last commit agree. A nil or hand-written design
// returns cfg.
func (d *Design) Local(cfg Config, id int) Config {
	if d != nil && id < len(d.spare) {
		d.spare[id].takeFrom(&cfg)
	}
	return cfg
}

// takeFrom subtracts sp from c's per-flow tables, the rows of Classes
// with a spare, clamped at zero. It is apart from Local so that Local
// inlines: a call that does not copies the config in and out.
func (sp Spare) takeFrom(c *Config) {
	f := c.fields()
	for i := range Classes {
		if r := &Classes[i]; r.spare != nil {
			n := f[r.Params[0].at]
			*n = max(0, *n-int(r.spare(sp)))
		}
	}
}

// SwitchConfig materializes Local(d.Config, id) as the dataplane
// configuration for switch id with the given number of instantiated
// ports. ports may exceed the design's PortNum: access (host-facing)
// ports exist physically but are outside the TSN resource budget, exactly
// as the paper counts only "enabled TSN ports".
func (d *Design) SwitchConfig(id, ports int) tsnswitch.Config {
	c := d.Local(d.Config, id).Switch()
	c.ID, c.Ports = id, max(ports, d.Config.PortNum)
	return c
}

// TSQueues returns the CQF queue pair, the two highest queues of a
// port: TS frames enter A and the pair alternates slot by slot.
func (c Config) TSQueues() (a, b int) { return c.QueueNum - 1, c.QueueNum - 2 }

// Switch maps c onto a switch's dataplane configuration: its sizes,
// slot, link rate and TS queue pair; ID and Ports are left zero.
func (c Config) Switch() tsnswitch.Config {
	qa, qb := c.TSQueues()
	return tsnswitch.Config{
		QueuesPerPort:  c.QueueNum,
		QueueDepth:     c.QueueDepth,
		BuffersPerPort: c.BufferNum,
		UnicastSize:    c.UnicastSize,
		MulticastSize:  c.MulticastSize,
		ClassSize:      c.ClassSize,
		MeterSize:      c.MeterSize,
		GateSize:       c.GateSize,
		CBSMapSize:     c.CBSMapSize,
		CBSSize:        c.CBSSize,
		SlotSize:       c.SlotSize,
		TSQueueA:       qa,
		TSQueueB:       qb,
		LinkRate:       c.LinkRate,
	}
}
