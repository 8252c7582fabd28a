package testbed

import (
	"slices"
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
)

// TestReconfigWedgeNamesTheLastAppliedOp wedges, on a fresh ring each
// time, the commit of a candidate that changes every set_* class before
// each of its staged operations in turn. The operations before the
// wedge stay applied while the transaction claims rolled-back: VerifyLive
// must name the switch and class of the last of them — the class the
// commit left partially applied — and find nothing when the wedge fired
// before the first. Reconfiguring to the configuration in force then
// repairs the network: the live switches decide what is staged, so the
// repair stages exactly the applied operations, under their names, and
// verifies clean once committed. A repair that fails before its last
// operation first rolls back to exactly the wedged state.
func TestReconfigWedgeNamesTheLastAppliedOp(t *testing.T) {
	const nOps = 6 * 8 // six switches, every class
	fullText := map[int]string{
		5: "testbed: switch 0 set_cbs_tbl is [4 4], expected [3 3]: partial reconfiguration left in place",
		6: "testbed: switch 0 set_queues is [4], expected [2]: partial reconfiguration left in place",
	}
	for k := 0; k < nOps; k++ {
		net, _, _ := liveRing(t, 12, false, Options{})
		cand := net.LiveConfig()
		cand.UnicastSize += 8
		cand.MulticastSize += 4
		cand.ClassSize += 8
		cand.MeterSize += 8
		cand.GateSize += 2
		cand.CBSMapSize++
		cand.CBSSize++
		cand.QueueDepth *= 2
		cand.BufferNum *= 2
		cand.SlotSize *= 2
		net.Reconfig.Arm(k, 1, true)
		txn, err := net.Reconfigure(cand)
		if err != nil {
			t.Fatal(err)
		}
		net.Engine.RunUntil(txn.CommitTime())
		ops := txn.Ops()
		if len(ops) != nOps || txn.State() != reconfig.StateRolledBack {
			t.Fatalf("wedge before op %d: %v with %d ops staged", k, txn.State(), len(ops))
		}
		err = net.VerifyLive()
		if k == 0 && err != nil {
			t.Fatalf("nothing applied, yet: %v", err)
		}
		if k > 0 {
			sw, class, _ := strings.Cut(strings.TrimPrefix(ops[k-1], "sw"), ":")
			if want := "switch " + sw + " " + class + " "; err == nil || !strings.Contains(err.Error(), want) {
				t.Fatalf("wedge before op %d: VerifyLive = %v, want it to name %q", k, err, want)
			}
			// Each class prints the sizes its switch primitive takes.
			if want, ok := fullText[k]; ok && err.Error() != want {
				t.Fatalf("wedge before op %d: VerifyLive = %q, want %q", k, err, want)
			}
		}

		if k >= 2 {
			wedged := liveState(net)
			net.Reconfig.Arm(k-1, reconfig.Retries+1, false)
			failed, err := net.Reconfigure(net.LiveConfig())
			if err != nil {
				t.Fatalf("wedge before op %d: repair rejected: %v", k, err)
			}
			for failed.State() == reconfig.StatePrepared {
				net.Engine.RunUntil(failed.CommitTime())
			}
			if failed.State() != reconfig.StateRolledBack || !slices.Equal(liveState(net), wedged) {
				t.Fatalf("wedge before op %d: failed repair %v did not restore the wedged state", k, failed.State())
			}
		}
		repair, err := net.Reconfigure(net.LiveConfig())
		if err != nil {
			t.Fatalf("wedge before op %d: repair rejected: %v", k, err)
		}
		net.Engine.RunUntil(repair.CommitTime())
		if got := repair.Ops(); !slices.Equal(got, ops[:k]) {
			t.Fatalf("wedge before op %d: repair staged %v, want %v", k, got, ops[:k])
		}
		if repair.State() != reconfig.StateCommitted {
			t.Fatalf("wedge before op %d: repair %v: %v", k, repair.State(), repair.Err())
		}
		if err := net.VerifyLive(); err != nil {
			t.Fatalf("wedge before op %d: after the repair: %v", k, err)
		}
	}
}

// liveState is every switch's sizes, slot and port gate lists, in
// switch and port order.
func liveState(net *Net) (s []any) {
	for _, sw := range net.Switches {
		c := sw.Config()
		s = append(s, core.Sizes(&c), c.SlotSize)
		for p := range c.Ports {
			in, out := sw.PortSchedules(p)
			s = append(s, in, out)
		}
	}
	return s
}
