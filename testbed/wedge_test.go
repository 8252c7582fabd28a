package testbed

import (
	"strings"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
)

// TestReconfigWedgeNamesTheLastAppliedOp wedges, on a fresh ring each
// time, the commit of a candidate that changes every set_* class before
// each of its staged operations in turn. The operations before the
// wedge stay applied while the transaction claims rolled-back: VerifyLive
// must name the switch and class of the last of them — the class the
// commit left partially applied — and find nothing when the wedge fired
// before the first.
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
		if k == 0 {
			if err != nil {
				t.Fatalf("nothing applied, yet: %v", err)
			}
			continue
		}
		sw, class, _ := strings.Cut(strings.TrimPrefix(ops[k-1], "sw"), ":")
		if want := "switch " + sw + " " + class + " "; err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("wedge before op %d: VerifyLive = %v, want it to name %q", k, err, want)
		}
		// Each class prints the sizes its switch primitive takes.
		if want, ok := fullText[k]; ok && err.Error() != want {
			t.Fatalf("wedge before op %d: VerifyLive = %q, want %q", k, err, want)
		}
	}
}
