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

// resolveInstruments binds every probe point of the switch to reg: the
// Stats counts, pool occupancies and queue high waters by address, the
// rest as handles. Called once from New, after ports and queues exist;
// reg == nil leaves every handle inert.
func (sw *Switch) resolveInstruments(reg *metrics.Registry) {
	if reg == nil {
		return
	}
	id := metrics.Int(sw.cfg.ID)
	reg.Counters(MetricRxFrames, "frames entering the ingress pipeline", "switch").Bind(&sw.stats.RxFrames, id)
	reg.Counters(MetricTxFrames, "frames fully transmitted", "switch").Bind(&sw.stats.TxFrames, id)
	drops := reg.Counters(MetricDrops, "frames dropped, by reason", "switch", "reason")
	for r := DropReason(0); r < dropReasonCount; r++ {
		drops.Bind(&sw.stats.Drops[r], id, metrics.Name(r.String()))
	}
	sw.metResidence = reg.Histograms(MetricResidence, "enqueue-to-tx-start residence time, nanoseconds",
		ResidenceBounds, "switch").With(id)
	sw.metPreempt = reg.Counters(MetricPreemption, "express-frame preemptions of in-flight frames", "switch").With(id)
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
		sw.ports[0].pool.Instrument(occ, hw, fails, id, shared)
	}
	enq := reg.Counters(MetricEnqueues, "frames admitted to an egress queue", "switch", "port", "queue")
	qhw := reg.Gauges(MetricQueueHW, "worst-case egress queue occupancy (descriptors)", "switch", "port", "queue")
	roll := reg.Counters(MetricRollovers, "gate slot/entry rollovers observed", "switch", "port", "dir")
	for _, p := range sw.ports {
		port := metrics.Int(p.id)
		if sw.cfg.SharedBufferNum <= 0 {
			p.pool.Instrument(occ, hw, fails, id, port)
		}
		for q := range p.queues {
			p.metEnq[q] = enq.With(id, port, metrics.Int(q))
			p.queues[q].Instrument(qhw, id, port, metrics.Int(q))
		}
		for dir := range p.gates {
			p.gates[dir].roll = roll.With(id, port, metrics.Name(dirNames[dir]))
		}
	}
}

// InstrumentDegradeLevel registers the switch's degradation level as
// its cell of levels: the watchdog's family, since only a watched
// switch exports one.
func (sw *Switch) InstrumentDegradeLevel(levels metrics.GaugeFamily) {
	levels.Bind((*int64)(&sw.degrade), metrics.Int(sw.cfg.ID))
}
