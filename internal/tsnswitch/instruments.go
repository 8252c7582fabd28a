package tsnswitch

import (
	"strconv"

	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
)

// Metric names exported by the switch dataplane. Label sets:
// switch, and where noted port / queue / reason / dir.
const (
	MetricRxFrames   = "tsn_switch_rx_frames_total"    // {switch}
	MetricTxFrames   = "tsn_switch_tx_frames_total"    // {switch}
	MetricDrops      = "tsn_switch_drops_total"        // {switch,reason}
	MetricEnqueues   = "tsn_queue_enqueues_total"      // {switch,port,queue}
	MetricQueueHW    = "tsn_queue_depth_high_water"    // {switch,port,queue}
	MetricPoolOcc    = "tsn_pool_occupancy"            // {switch,port}
	MetricPoolHW     = "tsn_pool_high_water"           // {switch,port}
	MetricPoolFails  = "tsn_pool_alloc_failures_total" // {switch,port}
	MetricRollovers  = "tsn_gate_rollovers_total"      // {switch,port,dir}
	MetricMeterPass  = "tsn_meter_passed_total"        // {switch}
	MetricMeterDrop  = "tsn_meter_dropped_total"       // {switch}
	MetricResidence  = "tsn_queue_residence_ns"        // {switch}
	MetricPreemption = "tsn_switch_preemptions_total"  // {switch}
)

// ResidenceBounds is the egress queue-residence bucket layout:
// 1 µs .. ~4 ms in doubling steps, nanoseconds. A CQF frame resides
// at most two slots (130 µs at the default slot), so the top buckets
// only fill when gating is misconfigured.
var ResidenceBounds = metrics.ExponentialBounds(1000, 2, 12)

// swInstruments holds one switch's pre-resolved telemetry handles.
// The zero value (uninstrumented switch) is all no-ops, so the
// dataplane calls them unconditionally.
type swInstruments struct {
	rx          metrics.Counter
	tx          metrics.Counter
	drops       [dropReasonCount]metrics.Counter
	residence   metrics.Histogram
	preemptions metrics.Counter
}

// resolveInstruments binds every probe point of the switch to reg.
// Called once from New, after ports and queues exist; reg == nil
// leaves every handle inert.
func (sw *Switch) resolveInstruments(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	reg.Help(MetricRxFrames, "frames entering the ingress pipeline")
	reg.Help(MetricTxFrames, "frames fully transmitted")
	reg.Help(MetricDrops, "frames dropped, by reason")
	reg.Help(MetricEnqueues, "frames admitted to an egress queue")
	reg.Help(MetricQueueHW, "worst-case egress queue occupancy (descriptors)")
	reg.Help(MetricPoolOcc, "packet buffers currently allocated")
	reg.Help(MetricPoolHW, "worst-case packet buffer occupancy")
	reg.Help(MetricPoolFails, "packet buffer allocation failures")
	reg.Help(MetricRollovers, "gate slot/entry rollovers observed")
	reg.Help(MetricMeterPass, "frames passed by ingress policing")
	reg.Help(MetricMeterDrop, "frames dropped by ingress policing")
	reg.Help(MetricResidence, "enqueue-to-tx-start residence time, nanoseconds")
	reg.Help(MetricPreemption, "express-frame preemptions of in-flight frames")

	swl := metrics.L("switch", strconv.Itoa(sw.cfg.ID))
	sw.met.rx = reg.Counter(MetricRxFrames, swl)
	sw.met.tx = reg.Counter(MetricTxFrames, swl)
	for r := DropReason(0); r < dropReasonCount; r++ {
		sw.met.drops[r] = reg.Counter(MetricDrops, swl, metrics.L("reason", r.String()))
	}
	sw.met.residence = reg.Histogram(MetricResidence, ResidenceBounds, swl)
	sw.met.preemptions = reg.Counter(MetricPreemption, swl)
	sw.flt.Meters.Instrument(
		reg.Counter(MetricMeterPass, swl),
		reg.Counter(MetricMeterDrop, swl),
	)
	// In SMS mode every port shares one pool; register it once under
	// port="shared" so per-port sites cannot double count.
	if sw.cfg.SharedBufferNum > 0 && len(sw.ports) > 0 {
		shared := metrics.L("port", "shared")
		sw.ports[0].pool.Instrument(
			reg.Gauge(MetricPoolOcc, swl, shared),
			reg.Gauge(MetricPoolHW, swl, shared),
			reg.Counter(MetricPoolFails, swl, shared),
		)
	}
	for _, p := range sw.ports {
		pl := metrics.L("port", strconv.Itoa(p.id))
		if sw.cfg.SharedBufferNum <= 0 {
			p.pool.Instrument(
				reg.Gauge(MetricPoolOcc, swl, pl),
				reg.Gauge(MetricPoolHW, swl, pl),
				reg.Counter(MetricPoolFails, swl, pl),
			)
		}
		for q, queue := range p.queues {
			ql := metrics.L("queue", strconv.Itoa(q))
			p.metEnq[q] = reg.Counter(MetricEnqueues, swl, pl, ql)
			queue.Instrument(reg.Gauge(MetricQueueHW, swl, pl, ql))
		}
		for dir := range p.gates {
			p.gates[dir].roll = reg.Counter(MetricRollovers, swl, pl, metrics.L("dir", dirNames[dir]))
		}
	}
}
