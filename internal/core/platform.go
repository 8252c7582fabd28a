package core

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/resource"
)

// Platform abstracts the implementation target. The customization APIs
// are platform-independent (§III.B); only the memory cost model —
// how parameters map onto physical RAM — is platform-specific.
type Platform interface {
	Name() string
	// MemoryCost maps a configuration onto the platform's memory
	// blocks.
	MemoryCost(cfg Config) *resource.Report
}

// FPGA is the paper's target: Xilinx 7-series block RAM in 18/36 Kb
// blocks (Zynq 7020).
type FPGA struct{}

// Name implements Platform.
func (FPGA) Name() string { return "fpga-bram" }

// MemoryCost implements Platform with the calibrated Table III model.
func (FPGA) MemoryCost(cfg Config) *resource.Report {
	// set_frer_tbl appears only when it was called, so designs without
	// redundancy reproduce Table III bit-for-bit.
	n, f := 0, cfg.fields()
	for i := range Classes {
		if Classes[i].in(&cfg) {
			n++
		}
	}
	items := make([]resource.Item, 0, n)
	for i := range Classes {
		if r := &Classes[i]; r.in(&cfg) {
			items = append(items, r.item(r.read(f, len(r.Params))))
		}
	}
	return &resource.Report{Label: fmt.Sprintf("FPGA BRAM (%d ports)", cfg.PortNum), Items: items}
}

// ASIC models an SRAM-based ASIC target where memories are compiled to
// exact sizes with a per-macro overhead instead of fixed blocks. It
// exists to demonstrate that the same customization drives a different
// platform cost model (the paper's platform-independence claim), and as
// an ablation on block quantization.
type ASIC struct {
	// MacroOverheadBits is the fixed per-memory-macro cost (decoders,
	// sense amplifiers); defaults to 1 Kb if zero.
	MacroOverheadBits int64
}

// Name implements Platform.
func (ASIC) Name() string { return "asic-sram" }

func (a ASIC) overhead() int64 {
	if a.MacroOverheadBits > 0 {
		return a.MacroOverheadBits
	}
	return 1024
}

func (a ASIC) macro(name, width string, params string, bits int64, macros int64) resource.Item {
	if bits > 0 {
		bits += macros * a.overhead()
	}
	return resource.Item{Name: name, Width: width, Params: params, Bits: bits}
}

// MemoryCost implements Platform with exact-size SRAM macros.
func (a ASIC) MemoryCost(cfg Config) *resource.Report {
	ports := int64(cfg.PortNum)
	r := &resource.Report{
		Label: fmt.Sprintf("ASIC SRAM (%d ports)", cfg.PortNum),
		Items: []resource.Item{
			a.macro("Switch Tbl", "72b", fmt.Sprintf("%d, %d", cfg.UnicastSize, cfg.MulticastSize),
				int64(resource.UnicastWidth)*int64(cfg.UnicastSize)+
					int64(resource.MulticastWidth)*int64(cfg.MulticastSize), 2),
			a.macro("Class. Tbl", "117b", fmt.Sprintf("%d", cfg.ClassSize),
				int64(resource.ClassWidth)*int64(cfg.ClassSize), 1),
			a.macro("Meter Tbl", "68b", fmt.Sprintf("%d", cfg.MeterSize),
				int64(resource.MeterWidth)*int64(cfg.MeterSize), 1),
			a.macro("Gate Tbl", "17b", fmt.Sprintf("%d, %d, %d", cfg.GateSize, cfg.QueueNum, cfg.PortNum),
				2*int64(resource.GateWidth)*int64(cfg.GateSize)*ports, 2*ports),
			a.macro("CBS Tbl", "72b", fmt.Sprintf("%d, %d, %d", cfg.CBSMapSize, cfg.CBSSize, cfg.PortNum),
				(int64(resource.CBSMapWidth)*int64(cfg.CBSMapSize)+
					int64(resource.CBSWidth)*int64(cfg.CBSSize))*ports, 2*ports),
			a.macro("Queues", "32b", fmt.Sprintf("%d, %d, %d", cfg.QueueDepth, cfg.QueueNum, cfg.PortNum),
				int64(resource.QueueMetaWidth)*int64(cfg.QueueDepth)*int64(cfg.QueueNum)*ports,
				int64(cfg.QueueNum)*ports),
			a.macro("Buffers", "2048B", fmt.Sprintf("%d, %d", cfg.BufferNum, cfg.PortNum),
				int64(resource.BufferSlotBits)*int64(cfg.BufferNum)*ports, ports),
		},
	}
	if cfg.FRERSize > 0 {
		r.Items = append(r.Items, a.macro("FRER Tbl",
			fmt.Sprintf("%db", resource.FRERBaseWidth+cfg.FRERHistory),
			fmt.Sprintf("%d, %d", cfg.FRERSize, cfg.FRERHistory),
			int64(resource.FRERBaseWidth+cfg.FRERHistory)*int64(cfg.FRERSize), 1))
	}
	return r
}
