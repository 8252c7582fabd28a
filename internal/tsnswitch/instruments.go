package tsnswitch

import "github.com/tsnbuilder/tsnbuilder/internal/metrics"

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
	id := metrics.Int(sw.cfg.ID)
	sw.met.rx = reg.Counters(MetricRxFrames, "frames entering the ingress pipeline", "switch").With(id)
	sw.met.tx = reg.Counters(MetricTxFrames, "frames fully transmitted", "switch").With(id)
	drops := reg.Counters(MetricDrops, "frames dropped, by reason", "switch", "reason")
	for r := DropReason(0); r < dropReasonCount; r++ {
		sw.met.drops[r] = drops.With(id, metrics.Name(r.String()))
	}
	sw.met.residence = reg.Histograms(MetricResidence, "enqueue-to-tx-start residence time, nanoseconds",
		ResidenceBounds, "switch").With(id)
	sw.met.preemptions = reg.Counters(MetricPreemption, "express-frame preemptions of in-flight frames", "switch").With(id)
	sw.flt.Meters.Instrument(
		reg.Counters(MetricMeterPass, "frames passed by ingress policing", "switch").With(id),
		reg.Counters(MetricMeterDrop, "frames dropped by ingress policing", "switch").With(id),
	)
	occ := reg.Gauges(MetricPoolOcc, "packet buffers currently allocated", "switch", "port")
	hw := reg.Gauges(MetricPoolHW, "worst-case packet buffer occupancy", "switch", "port")
	fails := reg.Counters(MetricPoolFails, "packet buffer allocation failures", "switch", "port")
	// In SMS mode every port shares one pool; register it once under
	// port="shared" so per-port sites cannot double count.
	if sw.cfg.SharedBufferNum > 0 && len(sw.ports) > 0 {
		shared := metrics.Name("shared")
		sw.ports[0].pool.Instrument(occ.With(id, shared), hw.With(id, shared), fails.With(id, shared))
	}
	enq := reg.Counters(MetricEnqueues, "frames admitted to an egress queue", "switch", "port", "queue")
	qhw := reg.Gauges(MetricQueueHW, "worst-case egress queue occupancy (descriptors)", "switch", "port", "queue")
	roll := reg.Counters(MetricRollovers, "gate slot/entry rollovers observed", "switch", "port", "dir")
	for _, p := range sw.ports {
		port := metrics.Int(p.id)
		if sw.cfg.SharedBufferNum <= 0 {
			p.pool.Instrument(occ.With(id, port), hw.With(id, port), fails.With(id, port))
		}
		for q := range p.queues {
			p.metEnq[q] = enq.With(id, port, metrics.Int(q))
			p.queues[q].Instrument(qhw.With(id, port, metrics.Int(q)))
		}
		for dir := range p.gates {
			p.gates[dir].roll = roll.With(id, port, metrics.Name(dirNames[dir]))
		}
	}
}
