package chaos

import (
	"fmt"
	"slices"
	"testing"

	"github.com/tsnbuilder/tsnbuilder/internal/faults"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// TestRetriesCommitOnCycleBoundary: every commit attempt — the first
// and each retry — lands on a CQF cycle boundary (2·slot) of the
// outgoing configuration, and the retry budget absorbs a transient
// failure. It runs the default profile's first generated cases whose
// reconfiguration meets a reconfig-transient fault, plus the ring
// tsnsim builds by default with a grow and a -faults script arming two
// failures, recording each attempt's instant through OnAttempt.
func TestRetriesCommitOnCycleBoundary(t *testing.T) {
	transient := func(f faults.Fault) bool { return f.Kind == faults.KindReconfigTransient }
	names, cases := []string{}, []Case{}
	for i := 0; len(cases) < 6; i++ {
		c, err := Generate(DefaultProfile(), i)
		if err != nil {
			t.Fatal(err)
		}
		if c.Reconfig != nil && slices.ContainsFunc(c.Faults, transient) {
			names, cases = append(names, fmt.Sprintf("case %d", i)), append(cases, c)
		}
	}
	grow, op := 256, 1
	names, cases = append(names, "tsnsim ring"), append(cases, Case{
		Params:   workload.Params{Topology: "ring", Switches: 6, TSFlows: 64, Hops: 3, WireSize: 64, SlotUs: 65, Seed: 42},
		DurMs:    30,
		Faults:   []faults.Fault{{AtUs: 5000, Kind: faults.KindReconfigTransient, Op: &op, Count: 2}},
		Reconfig: &Delta{AtUs: 10000, UnicastSize: &grow, ClassSize: &grow, MeterSize: &grow},
	})

	for i, c := range cases {
		net, rec, err := c.Build(testbed.Options{})
		if err != nil {
			t.Fatalf("%s: %v", names[i], err)
		}
		var ats []sim.Time
		net.Reconfig.OnAttempt(func(*reconfig.Txn, int) { ats = append(ats, net.Engine.Now()) })
		net.Run(0, c.dur())

		txn := rec.Txn
		if txn == nil {
			t.Fatalf("%s: no transaction (%v)", names[i], rec.BeginErr)
		}
		f := c.Faults[slices.IndexFunc(c.Faults, transient)]
		if txn.State() != reconfig.StateCommitted || txn.Attempts() != f.Count+1 || len(ats) != f.Count+1 {
			t.Fatalf("%s: %v after %d attempts (%d seen; %v), want committed after %d",
				names[i], txn.State(), txn.Attempts(), len(ats), txn.Err(), f.Count+1)
		}
		cycle := 2 * sim.Time(c.SlotUs) * sim.Microsecond
		for k, at := range ats {
			if at%cycle != 0 {
				t.Errorf("%s: attempt %d at %v, %v past a %v cycle boundary", names[i], k+1, at, at%cycle, cycle)
			}
		}
	}
}
