// Package psim is the conservative parallel discrete-event layer over
// internal/sim: it shards one large topology into partitions, gives
// each partition its own event queue (a plain sim.Engine) and worker
// goroutine, and synchronizes them with barrier-stepped conservative
// windows that start at the earliest pending event.
//
// The lookahead W is the minimum over cut links (links whose endpoints
// land in different partitions) of propagation plus store-and-forward
// serialization of a minimum frame: an event executing at time t in
// one partition cannot affect another partition before t+W, because
// the only inter-partition channel is a frame on a cut link, and a
// frame launched at t is delivered no earlier than
// t + TxTime(min frame) + prop ≥ t + W. Before each window every
// partition publishes its earliest pending instant; from those each
// worker derives the earliest instant anything could still reach it
// (Runner.RunUntil) and runs up to there without hearing from its
// neighbors, the workers barrier, cross-partition deliveries drain
// from their mailboxes onto the receiving engines, and the next window
// begins at the next event, however far away. With no cut links the
// window is Unbounded and each partition runs one serial pass.
//
// Determinism contract: merged execution order is a function of the
// model, not of goroutine scheduling. Same-instant events order by
// (prio, scheduling order) inside every engine; frame deliveries carry
// the receiving interface's global index as prio (two deliveries to
// one interface can never tie — the wire serializes them), so at any
// instant each engine executes its locals in FIFO order and its
// deliveries in interface order, exactly as the serial engine would.
// Cross-partition deliveries are stamped with their precomputed
// (arrival time, interface prio) and drained in a fixed mailbox order,
// making the partitioned run byte-identical to the serial run on every
// exported metric.
package psim

import (
	"fmt"
	"math"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/topology"
)

// Unbounded is the lookahead of a partitioning with no cut links: the
// partitions never interact and each runs to its deadline in one
// window.
const Unbounded = sim.Time(math.MaxInt64)

// CutLink describes one link crossing a partition boundary, in the
// terms the lookahead derivation needs: its propagation delay and line
// rate.
type CutLink struct {
	Prop sim.Time
	Rate ethernet.Rate
}

// Lookahead returns the conservative safe window for a set of cut
// links: the minimum over links of propagation + store-and-forward
// serialization of a minimum Ethernet frame. A frame transmitted at
// time t on a cut link arrives at t + TxTime(wireBytes) + prop with
// wireBytes ≥ MinFrameBytes, so no event at time t can affect a remote
// partition before t + Lookahead. Zero cut links (including the
// degenerate single-partition case) return Unbounded.
func Lookahead(cuts []CutLink) sim.Time {
	w := Unbounded
	for _, c := range cuts {
		d := c.Prop + ethernet.TxTime(ethernet.MinFrameBytes, c.Rate)
		if d < w {
			w = d
		}
	}
	return w
}

// Assign shards a topology's switches into parts partitions and
// returns the per-switch partition index: contiguous, balanced,
// ascending switch-ID blocks (switch sw goes to sw*parts/N).
//
// Contiguous ID blocks keep the edge cut small: every topology this
// repo generates numbers switches locality-preservingly (a ring's arcs,
// a chain's segments, a tree's levels, a grid's rows, a fat-tree's
// pods), so adjacent IDs are usually adjacent in the graph and an ID
// band cuts few cables. Nothing else depends on the blocks — metric
// exports sort, so any assignment merges to the serial export — and a
// load-balancing assignment may replace them. Hosts are not assigned
// here: each NIC follows the switch it attaches to. parts must be ≥ 1;
// parts > N collapses to one switch per partition.
func Assign(t *topology.Topology, parts int) []int {
	if parts < 1 {
		panic(fmt.Sprintf("psim: Assign with %d partitions", parts))
	}
	if parts > t.N {
		parts = t.N
	}
	assign := make([]int, t.N)
	for sw := 0; sw < t.N; sw++ {
		assign[sw] = sw * parts / t.N
	}
	return assign
}

// CutTrunks returns the physical cables whose endpoints land in
// different partitions under assign, in TrunkLinks order.
func CutTrunks(t *topology.Topology, assign []int) []topology.Link {
	var out []topology.Link
	for _, l := range t.TrunkLinks() {
		if assign[l.A.Switch] != assign[l.B.Switch] {
			out = append(out, l)
		}
	}
	return out
}
