// The scale study exercises the partitioned parallel simulator
// (internal/psim) on a topology two orders of magnitude beyond the
// paper's 6-switch demo ring: one large mesh, the same seeded
// workload, run at 1/2/4/8 partitions. Events-per-second and the
// speedup over the serial engine are the headline numbers; the
// delivered-frame count doubles as a live parity witness (every
// partition count must deliver the identical total).
package experiments

import (
	"fmt"
	"strings"
	"syscall"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// ScaleRow is one partition count's measurement.
type ScaleRow struct {
	Partitions int
	// Window is the conservative lookahead the run stepped by (0 when
	// serial).
	Window sim.Time
	// Wall is the host time the simulation took.
	Wall time.Duration
	// CPUPerWall is process CPU time (rusage) over Wall: the cores the
	// run actually kept busy.
	CPUPerWall float64
	// Windows is how many barrier pairs the runner stepped (0 when
	// serial); Events/Windows is what each one paid for.
	Windows uint64
	// Events is the discrete-event count (identical at every partition
	// count — the parity contract).
	Events uint64
	// EventsPerSec is Events/Wall, the throughput headline.
	EventsPerSec float64
	// Speedup is this row's throughput over the serial row's.
	Speedup float64
	// Delivered is the total delivered-frame count, a parity witness.
	Delivered uint64
	// TSMax is the worst TS latency, a second parity witness.
	TSMax sim.Time
}

// scaleSwitches is the mesh size of the study: a 14×15 grid, ~35× the
// paper's ring.
const scaleSwitches = 210

// ScalePartitionCounts are the partition counts the study sweeps.
var ScalePartitionCounts = []int{1, 2, 4, 8}

// buildScale constructs the study's workload and network for one
// partition count. Exported to bench_test.go via ScaleStudy only.
func buildScale(p Params, partitions int) (*testbed.Net, *metrics.Registry, error) {
	w, err := workload.Build(workload.Params{
		Topology: "mesh",
		Switches: scaleSwitches,
		TSFlows:  p.TSFlows * 8,
		Hops:     4,
		WireSize: 64,
		SlotUs:   65,
		Seed:     p.Seed,
	})
	if err != nil {
		return nil, nil, err
	}
	reg := metrics.New()
	net, err := testbed.Build(testbed.Options{
		Design:     w.Design,
		Topo:       w.Topo,
		Flows:      w.Specs,
		Metrics:    reg,
		Seed:       p.Seed,
		Partitions: partitions,
	})
	if err != nil {
		return nil, nil, err
	}
	return net, reg, nil
}

// ScaleStudy runs the partitioned-simulation sweep and returns one row
// per partition count. It errors if any partitioned run's parity
// witnesses (event, delivery and worst-latency totals) diverge from
// the serial row — the study refuses to report throughput for a run
// that broke determinism.
func ScaleStudy(p Params) ([]ScaleRow, error) {
	var rows []ScaleRow
	for _, parts := range ScalePartitionCounts {
		net, reg, err := buildScale(p, parts)
		if err != nil {
			return nil, err
		}
		cpu, start := cpuTime(), time.Now()
		net.Run(0, p.Duration)
		wall := time.Since(start)
		if p.Metrics != nil {
			p.Metrics.Merge(reg)
		}
		row := ScaleRow{
			Partitions: net.Partitions(),
			Window:     net.LookaheadWindow(),
			Wall:       wall,
			CPUPerWall: (cpuTime() - cpu).Seconds() / wall.Seconds(),
			Events:     reg.CounterValue("tsn_sim_events_total"),
			Delivered:  reg.SumCounter("tsn_flows_delivered_total"),
			TSMax:      net.Summary(ethernet.ClassTS).MaxLat,
		}
		if secs := wall.Seconds(); secs > 0 {
			row.EventsPerSec = float64(row.Events) / secs
		}
		if st := net.PartitionStats(); st != nil {
			row.Windows = st[0].Windows
		}
		rows = append(rows, row)
	}
	base := rows[0]
	for i := range rows {
		if base.EventsPerSec > 0 {
			rows[i].Speedup = rows[i].EventsPerSec / base.EventsPerSec
		}
		if rows[i].Events != base.Events || rows[i].Delivered != base.Delivered || rows[i].TSMax != base.TSMax {
			return nil, fmt.Errorf("scale: partitions=%d diverged from serial (events %d vs %d, delivered %d vs %d, tsmax %v vs %v)",
				rows[i].Partitions, rows[i].Events, base.Events,
				rows[i].Delivered, base.Delivered, rows[i].TSMax, base.TSMax)
		}
	}
	return rows, nil
}

// FormatScale renders the study as an aligned table.
func FormatScale(rows []ScaleRow) string {
	var b strings.Builder
	fmt.Fprintf(&b, "E-SCALE — partitioned simulation, %d-switch mesh (lookahead %v)\n",
		scaleSwitches, rows[len(rows)-1].Window)
	fmt.Fprintf(&b, "  %-10s %12s %9s %14s %12s %10s %9s %12s\n",
		"partitions", "events", "windows", "events/window", "wall", "ev/s", "cpu/wall", "speedup")
	for _, r := range rows {
		perWindow := "-"
		if r.Windows > 0 {
			perWindow = fmt.Sprintf("%.1f", float64(r.Events)/float64(r.Windows))
		}
		fmt.Fprintf(&b, "  %-10d %12d %9d %14s %12v %10.0f %9.2f %11.2fx\n", r.Partitions, r.Events, r.Windows,
			perWindow, r.Wall.Round(time.Millisecond), r.EventsPerSec, r.CPUPerWall, r.Speedup)
	}
	return b.String()
}

// cpuTime is the process's user+system CPU time so far.
func cpuTime() time.Duration {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}
