package experiments

import (
	"fmt"
	"strings"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/resource"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// TableIRow is one configuration row of Table I (the motivation case
// study on queue/buffer customization).
type TableIRow struct {
	Case         string
	QueueNumPort int
	PktPerQueue  int
	BufferNum    int
	TotalKb      float64
}

// TableI reproduces the paper's Table I: two queue/buffer
// configurations for the 3-switch, 1-enabled-port motivation network.
func TableI() []TableIRow {
	row := func(name string, depth, buffers int) TableIRow {
		return TableIRow{
			Case: name, QueueNumPort: 8, PktPerQueue: depth, BufferNum: buffers,
			TotalKb: queueBufKb(depth, buffers),
		}
	}
	return []TableIRow{
		row("Case 1", 16, 128),
		row("Case 2", 12, 96),
	}
}

// FormatTableI renders Table I like the paper.
func FormatTableI(rows []TableIRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table I — Configuration of queue and packet buffer\n")
	fmt.Fprintf(&b, "  %-7s %10s %10s %10s %12s\n", "", "Queue/Port", "Pkt/Queue", "Buffers", "Total BRAM")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-7s %10d %10d %10d %10.0fKb\n",
			r.Case, r.QueueNumPort, r.PktPerQueue, r.BufferNum, r.TotalKb)
	}
	if len(rows) == 2 {
		fmt.Fprintf(&b, "  saving: %.0fKb\n", rows[0].TotalKb-rows[1].TotalKb)
	}
	return b.String()
}

// TableIIIColumn is one column group of Table III.
type TableIIIColumn struct {
	Label     string
	Config    core.Config
	Report    *resource.Report
	TotalKb   float64
	Reduction float64 // vs commercial, in percent
}

// TableIII reproduces the paper's Table III: the commercial BCM53154
// configuration against the customized star/linear/ring switches.
func TableIII() ([]TableIIIColumn, error) {
	build := func(label string, cfg core.Config) (TableIIIColumn, error) {
		d, err := core.BuilderFor(cfg, nil).Build()
		if err != nil {
			return TableIIIColumn{}, err
		}
		return TableIIIColumn{Label: label, Config: cfg, Report: d.Report, TotalKb: d.Report.TotalKb()}, nil
	}
	base, err := build("Commercial Switch (4 ports)", core.CommercialProfile())
	if err != nil {
		return nil, err
	}
	cols := []TableIIIColumn{base}
	for _, c := range []struct {
		label string
		ports int
	}{
		{"Customized (Star, 3 ports)", 3},
		{"Customized (Linear, 2 ports)", 2},
		{"Customized (Ring, 1 port)", 1},
	} {
		col, err := build(c.label, core.PaperCustomizedConfig(c.ports))
		if err != nil {
			return nil, err
		}
		col.Reduction = 100 * col.Report.ReductionVs(base.Report)
		cols = append(cols, col)
	}
	return cols, nil
}

// FormatTableIII renders Table III like the paper.
func FormatTableIII(cols []TableIIIColumn) string {
	var b strings.Builder
	fmt.Fprintf(&b, "Table III — Comparison of resource usage under different scenarios\n\n")
	for _, c := range cols {
		fmt.Fprintf(&b, "%s\n", c.Label)
		for _, it := range c.Report.Items {
			fmt.Fprintf(&b, "  %-11s %-6s %-14s %8.0fKb\n", it.Name, it.Width, it.Params, it.Kb())
		}
		if c.Reduction != 0 {
			fmt.Fprintf(&b, "  %-11s %-21s %8.0fKb (-%.2f%%)\n\n", "Total", "", c.TotalKb, c.Reduction)
		} else {
			fmt.Fprintf(&b, "  %-11s %-21s %8.0fKb\n\n", "Total", "", c.TotalKb)
		}
	}
	return b.String()
}

// PerSwitchRow is one network of E-PERSWITCH: total BRAM with every switch
// at the commercial profile, the uniform derived design and its own share
// of it (Design.Local); the fewest and most entries a switch then holds.
type PerSwitchRow struct {
	Net                              string
	CommercialKb, UniformKb, LocalKb float64
	MinEntries, MaxEntries, Flows    int
}

// PerSwitchStudy prices guideline (1) applied per network and per switch
// on the benchmark ring, the 210-switch mesh and a fat-tree; no simulation.
func PerSwitchStudy(p Params) ([]PerSwitchRow, error) {
	var rows []PerSwitchRow
	for _, wp := range []workload.Params{
		{Topology: "ring", Switches: 6, TSFlows: 1024, Hops: 3},
		{Topology: "mesh", Switches: 210, TSFlows: 2048, Hops: 4},
		{Topology: "fattree", Switches: 20, TSFlows: 512, Hops: 3},
	} {
		wp.WireSize, wp.SlotUs, wp.Seed = 64, 65, p.Seed
		w, err := workload.Build(wp)
		if err != nil {
			return nil, err
		}
		d, n := w.Design, float64(w.Topo.N)
		row := PerSwitchRow{
			Net:          fmt.Sprintf("%s-%d × %d × %d hops", wp.Topology, w.Topo.N, wp.TSFlows, wp.Hops),
			CommercialKb: n * d.Platform.MemoryCost(core.CommercialProfile()).TotalKb(),
			UniformKb:    n * d.Report.TotalKb(),
			MinEntries:   wp.TSFlows, Flows: wp.TSFlows,
		}
		for s := 0; s < w.Topo.N; s++ {
			local := d.Local(d.Config, s)
			row.LocalKb += d.Platform.MemoryCost(local).TotalKb()
			row.MinEntries = min(row.MinEntries, local.UnicastSize)
			row.MaxEntries = max(row.MaxEntries, local.UnicastSize)
		}
		rows = append(rows, row)
	}
	return rows, nil
}

// FormatPerSwitch renders the study as an aligned table, or as CSV for
// external plotting tools.
func FormatPerSwitch(rows []PerSwitchRow, csv bool) string {
	out, rowFmt := "E-PERSWITCH — network-total BRAM, guideline (1) once per network vs once per switch\n"+
		"  network                        commercial    uniform   per-switch   saving  entries/switch\n",
		"  %-28s %10.0fKb %8.0fKb %10.0fKb %7.1f%%  %d–%d of %d\n"
	if csv {
		out = "network,commercial_kb,uniform_kb,per_switch_kb,saving_pct,min_entries,max_entries,flows\n"
		rowFmt = "%s,%.0f,%.0f,%.0f,%.1f,%d,%d,%d\n"
	}
	for _, r := range rows {
		out += fmt.Sprintf(rowFmt, r.Net, r.CommercialKb, r.UniformKb, r.LocalKb,
			100*(r.LocalKb/r.UniformKb-1), r.MinEntries, r.MaxEntries, r.Flows)
	}
	return out
}
