package chaos

import (
	"fmt"

	"github.com/tsnbuilder/tsnbuilder/internal/ethernet"
	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/tsnswitch"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// Oracle names, as they appear in violations and repro artifacts.
const (
	// OracleConservation: every frame the generators sent is either
	// received or accounted to a recorded drop (link fault, switch
	// dataplane), and buffer pools drain back to empty unless a
	// buffer-leak fault was deliberately injected.
	OracleConservation = "frame-conservation"
	// OracleZeroLoss: on an FRER-covered case (all TS flows redundant,
	// faults confined to a single ring cable — FRER's single point of
	// failure) TS traffic loses nothing.
	OracleZeroLoss = "ts-frer-zero-loss"
	// OracleAttribution: each flow's worst-delivery component
	// decomposition sums exactly to its recorded worst latency.
	OracleAttribution = "attribution-exact-sum"
	// OracleLadder: the degradation ladder never skips a rung downward
	// (shed classes are restored in reverse order: RC before BE) and
	// never leaves the defined levels — TS is never shed.
	OracleLadder = "ladder-order"
	// OracleAtomicity: every reconfiguration resolves commit-or-exact-
	// rollback — a committed transaction leaves every switch on the
	// candidate configuration, anything else leaves them exactly on the
	// pre-transaction configuration.
	OracleAtomicity = "reconfig-atomicity"
	// OracleDeterminism: re-running the same case yields a
	// byte-identical metrics snapshot (checked by the campaign on a
	// sampled subset).
	OracleDeterminism = "replay-determinism"
	// OracleParity: re-running the case (stripped to the partitionable
	// feature set) on the partitioned parallel simulator yields a
	// byte-identical metrics export to the serial engine, the scheduler
	// heap-depth gauge excepted (checked by the campaign on a sampled
	// subset; see DESIGN.md §16).
	OracleParity = "partition-parity"
	// OracleCQFBound: on a case with no fault and no reconfiguration,
	// every TS flow's latencies stay within the paper's Eq. (1),
	// [(h−1)·T, (h+1)·T] (testbed.CheckCQFBound). Other cases skip it.
	OracleCQFBound = "cqf-bound"
)

// Oracles lists every invariant oracle the engine can report, in
// documentation order.
func Oracles() []string {
	return []string{OracleConservation, OracleZeroLoss, OracleAttribution,
		OracleLadder, OracleAtomicity, OracleDeterminism, OracleParity, OracleCQFBound}
}

// checkOracles applies the post-run oracle suite to res's executed
// case: it appends every violation, and every oracle the case skipped
// with the reason.
func checkOracles(res *Result, net *testbed.Net, reg *metrics.Registry, rec *TxnRecord) {
	c := &res.Case
	add := func(oracle, format string, args ...any) {
		res.Violations = append(res.Violations, Violation{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
	}

	// Frame conservation. Per-class loss is per-flow sent-vs-accepted,
	// so each lost unit corresponds to at least one physically dropped
	// frame; the recorded drops must cover them.
	var lost uint64
	for _, cls := range []ethernet.Class{ethernet.ClassTS, ethernet.ClassRC, ethernet.ClassBE} {
		lost += net.Summary(cls).Lost
	}
	st := net.SwitchStats()
	accounted := reg.SumCounter(faults.MetricLinkDrops) + st.TotalDrops()
	if lost > accounted {
		add(OracleConservation, "%d frames lost but only %d drops recorded (link=%d switch=%d)",
			lost, accounted, reg.SumCounter(faults.MetricLinkDrops), st.TotalDrops())
	}
	if !hasFaultKind(c, faults.KindBufferLeak) {
		if err := net.CheckBufferLeaks(); err != nil {
			add(OracleConservation, "buffer pools did not drain: %v", err)
		}
	}

	// TS zero loss under FRER-covered failures.
	if c.FRERCovered {
		if ts := net.Summary(ethernet.ClassTS); ts.Lost > 0 {
			add(OracleZeroLoss, "covered case lost %d TS frames (sent=%d recv=%d)",
				ts.Lost, ts.Sent, ts.Received)
		}
	}

	// Exact-sum latency attribution.
	for _, st := range net.Collector.Delivered() {
		if got := st.Worst.Total(); got != st.MaxLat {
			add(OracleAttribution, "flow %d worst components sum %v != worst latency %v",
				st.FlowID, got, st.MaxLat)
		}
	}

	// Degradation-ladder ordering.
	if net.Watchdog != nil {
		for i, tr := range net.Watchdog.Transitions() {
			if tr.To < tsnswitch.DegradeOff || tr.To > tsnswitch.DegradeShedRC {
				add(OracleLadder, "transition %d: switch %d moved to undefined level %d",
					i, tr.Switch, int(tr.To))
			}
			if tr.To < tr.From && tr.From-tr.To != 1 {
				add(OracleLadder, "transition %d: switch %d de-escalated %v→%v, skipping a rung",
					i, tr.Switch, tr.From, tr.To)
			}
		}
	}

	// Eq. (1) assumes synchronized clocks, intact links and gates, and
	// one configuration for the whole run; a fault or a reconfiguration
	// breaks that premise for a window no oracle defines yet.
	switch {
	case len(c.Faults) > 0:
		res.Skipped = append(res.Skipped, Violation{Oracle: OracleCQFBound,
			Detail: fmt.Sprintf("%d-fault script: faults break Eq. (1)'s premises", len(c.Faults))})
	case c.Reconfig != nil:
		res.Skipped = append(res.Skipped, Violation{Oracle: OracleCQFBound,
			Detail: "mid-run reconfiguration: Eq. (1) holds for one configuration"})
	default:
		for _, v := range net.CheckCQFBound() {
			add(OracleCQFBound, "%v", v)
		}
	}

	// Reconfiguration atomicity: commit-or-exact-rollback. A case has
	// at most one transaction; violations name it "txn 0".
	if rec == nil {
		return
	}
	live := net.LiveConfig()
	switch {
	case rec.Txn == nil && rec.BeginErr == nil:
		// The begin instant fell outside the run; nothing staged.
	case rec.BeginErr != nil:
		// Rejected before staging: the live config must be untouched.
		if live != rec.Pre {
			add(OracleAtomicity, "txn 0 rejected (%v) but live config drifted", rec.BeginErr)
		}
	case rec.Txn.State() == reconfig.StateCommitted:
		if live != rec.Cand {
			add(OracleAtomicity, "txn 0 committed but live config is not the candidate")
		}
	case rec.Txn.State() == reconfig.StateRolledBack:
		if live != rec.Pre {
			add(OracleAtomicity, "txn 0 rolled back but live config is not the pre-transaction config")
		}
	default:
		// Unresolved at run end (commit boundary or retry beyond the
		// window): nothing to assert about the outcome.
	}
	// Regardless of claimed outcomes, the switches themselves must
	// match whatever configuration the controller says is in force —
	// this is what catches a wedged commit that left partial state
	// while claiming rolled-back.
	if err := net.VerifyLive(); err != nil {
		add(OracleAtomicity, "%v", err)
	}
}

// hasFaultKind reports whether the case's script contains kind.
func hasFaultKind(c *Case, kind string) bool {
	for i := range c.Faults {
		if c.Faults[i].Kind == kind {
			return true
		}
	}
	return false
}
