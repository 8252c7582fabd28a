package experiments

import (
	"fmt"
	"strings"

	"github.com/tsnbuilder/tsnbuilder/internal/clock"
	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/gptp"
	"github.com/tsnbuilder/tsnbuilder/internal/itp"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// SyncResult reports the E-SYNC experiment: the prototype's claimed
// sub-50 ns synchronization precision (§IV.A).
type SyncResult struct {
	Nodes          int
	WorstOffset    sim.Time
	SteadyState    sim.Time // worst offset after convergence window
	ConvergedAfter sim.Time
}

// SyncPrecision measures gPTP precision on the 6-switch ring with
// randomized oscillator drifts up to ±50 ppm.
func SyncPrecision(seed uint64) SyncResult {
	engine := sim.NewEngine()
	dom := gptp.NewDomain(engine)
	rng := sim.NewRand(seed)
	const n = 6
	nodes := make([]*gptp.Node, n)
	for i := 0; i < n; i++ {
		drift := clock.PPB(rng.Int63n(100_000) - 50_000)
		offset := sim.Time(rng.Int63n(int64(sim.Millisecond)))
		if i == 0 {
			drift, offset = 0, 0
		}
		nodes[i] = dom.AddNode(i, drift, offset)
	}
	for i := 0; i < n; i++ {
		dom.Connect(nodes[i], nodes[(i+1)%n], 400*sim.Nanosecond)
	}
	dom.SetGrandmaster(nodes[0])
	dom.Start()

	res := SyncResult{Nodes: n}
	converged := sim.Time(-1)
	// 2 s convergence, then a 1 s steady-state window sampled twice per
	// sync interval.
	for engine.Now() < 3*sim.Second {
		engine.RunFor(gptp.SyncInterval / 2)
		off := dom.MaxAbsOffset()
		if off > res.WorstOffset {
			res.WorstOffset = off
		}
		if converged < 0 && off < 50*sim.Nanosecond {
			converged = engine.Now()
		}
		if engine.Now() > 2*sim.Second && off > res.SteadyState {
			res.SteadyState = off
		}
	}
	if converged >= 0 {
		res.ConvergedAfter = converged
	}
	return res
}

// FormatSync renders the precision result.
func FormatSync(res SyncResult) string {
	return fmt.Sprintf("E-SYNC — gPTP precision (%d-switch ring, ±50ppm oscillators)\n"+
		"  steady-state worst offset: %v (target < 50ns)\n"+
		"  converged after:           %v\n", res.Nodes, res.SteadyState, res.ConvergedAfter)
}

// ITPRow is one strategy of the ITP ablation.
type ITPRow struct {
	Strategy   string
	Occupancy  int // worst packets per (port, slot) = required depth
	QueueDepth int // provisioned (with margin)
	BufferNum  int
	QueueBufKb float64 // queue + buffer BRAM per port
}

// ITPAblation quantifies what Injection Time Planning buys: the queue
// depth (and thus buffer count and BRAM) required with naive all-at-
// zero injection versus planned offsets, for the paper's 1024-flow
// ring workload.
func ITPAblation(p Params) ([]ITPRow, error) {
	slot := 65 * sim.Microsecond

	row := func(strategy string, occupancy int) ITPRow {
		depth := occupancy + (occupancy+1)/2 // 50% margin
		return ITPRow{
			Strategy: strategy, Occupancy: occupancy,
			QueueDepth: depth, BufferNum: depth * 8, QueueBufKb: queueBufKb(depth, depth*8),
		}
	}

	// The full strategy spectrum of §V: naive zero offsets, blind
	// round-robin and random spreading, and the greedy ITP planner.
	// Each sweep point regenerates its own spec set so the points stay
	// self-contained under the parallel harness.
	strategies := []itp.Strategy{itp.StrategyNaive, itp.StrategyRandom,
		itp.StrategyRoundRobin, itp.StrategyGreedy}
	return sweep(p, len(strategies), func(i int, rp Params) (ITPRow, error) {
		st := strategies[i]
		w, err := workload.Build(ringParams(rp))
		if err != nil {
			return ITPRow{}, err
		}
		plan, err := itp.ComputeWith(w.Specs, slot, nil, st, rp.Seed)
		if err != nil {
			return ITPRow{}, err
		}
		label := st.String()
		switch st {
		case itp.StrategyNaive:
			label = "naive (offset 0)"
		case itp.StrategyGreedy:
			label = "ITP (greedy)"
		}
		return row(label, plan.MaxOccupancy), nil
	})
}

// FormatITP renders the ablation rows.
func FormatITP(rows []ITPRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E-ITP — Injection Time Planning ablation (per enabled port)\n")
	fmt.Fprintf(&b, "  %-18s %10s %10s %10s %12s\n", "strategy", "occupancy", "depth", "buffers", "queue+buf")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-18s %10d %10d %10d %10.0fKb\n",
			r.Strategy, r.Occupancy, r.QueueDepth, r.BufferNum, r.QueueBufKb)
	}
	return b.String()
}

// PlatformRow compares cost models for one configuration.
type PlatformRow struct {
	Platform string
	TotalKb  float64
}

// PlatformAblation prices the ring-customized configuration on the
// FPGA BRAM model versus the exact-size ASIC SRAM model, demonstrating
// the platform-independent APIs driving platform-specific costs.
func PlatformAblation() ([]PlatformRow, error) {
	cfg := core.PaperCustomizedConfig(1)
	var rows []PlatformRow
	for _, pf := range []core.Platform{core.FPGA{}, core.ASIC{}} {
		d, err := core.BuilderFor(cfg, pf).Build()
		if err != nil {
			return nil, err
		}
		rows = append(rows, PlatformRow{Platform: pf.Name(), TotalKb: d.Report.TotalKb()})
	}
	return rows, nil
}

// FormatPlatform renders the comparison.
func FormatPlatform(rows []PlatformRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E-PLATFORM — same customization, different cost models (ring config)\n")
	for _, r := range rows {
		fmt.Fprintf(&b, "  %-10s %8.1fKb\n", r.Platform, r.TotalKb)
	}
	return b.String()
}
