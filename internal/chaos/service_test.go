package chaos

import (
	"context"
	"net"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/svc"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// TestServiceCampaignFixedSeed is the acceptance run, the same one
// tsnserve -chaos makes: a fixed-seed campaign drives the live service
// concurrently — stampedes, coherence probes, slow clients, transient
// and wedged mid-commit faults, cache-miss bursts — and all three
// service oracles must hold.
func TestServiceCampaignFixedSeed(t *testing.T) {
	sum, err := RunServiceCampaign(ServiceOptions{Seed: 42, Budget: 2 * time.Minute, Log: t.Logf})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range sum.Violations {
		t.Errorf("oracle violation: %s", v)
	}
	for _, e := range sum.Errors {
		t.Errorf("campaign error: %s", e)
	}
	if sum.Executed != sum.Planned || sum.Planned != serviceRequests {
		t.Fatalf("executed %d of %d planned actions, want all %d", sum.Executed, sum.Planned, serviceRequests)
	}
	if sum.Accepted == 0 {
		t.Error("no reconfiguration was ever accepted — the drive plan is broken")
	}
	if sum.CoherenceProbes == 0 {
		t.Error("no coherence probe ran")
	}
	if sum.FaultsArmed < 2 {
		t.Errorf("faults armed = %d, want transient(s) + the wedge", sum.FaultsArmed)
	}
	if sum.ByStatus[http.StatusOK] == 0 {
		t.Error("no request ever succeeded")
	}
	// The wedge must have surfaced as at least one hard failure
	// (500 verify/rollback) — never as a silent 2xx.
	if sum.ByStatus[http.StatusInternalServerError] == 0 {
		t.Error("the armed wedge never produced a 500")
	}
}

// TestServiceCampaignBudgetCutsTheDrive: Executed counts scripted
// actions, not responses, so it reads at most Planned and shows a
// budget that expired before the drive ran to its end.
func TestServiceCampaignBudgetCutsTheDrive(t *testing.T) {
	sum, err := RunServiceCampaign(ServiceOptions{Seed: 42, Budget: time.Nanosecond})
	if err != nil {
		t.Fatal(err)
	}
	if sum.Planned != serviceRequests || sum.Executed >= sum.Planned {
		t.Fatalf("executed %d of %d planned actions under a 1 ns budget, want fewer", sum.Executed, sum.Planned)
	}
}

// TestServiceCampaignOracleCatchesFabricatedLoss verifies the
// accepted-then-lost oracle actually bites: a fabricated client-side
// acknowledgment that the journal never saw must be flagged.
func TestServiceCampaignOracleCatchesFabricatedLoss(t *testing.T) {
	s, err := svc.NewService(svc.Options{Workload: workload.Params{
		Topology: "linear", Switches: 2, TSFlows: 4, Hops: 2,
		WireSize: 200, SlotUs: 65, Seed: 1,
	}})
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go s.Serve(ln)
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		_ = s.Shutdown(ctx)
	}()

	d := newSvcDriver("http://"+ln.Addr().String(), 10*time.Second)
	d.ack(svc.ReconfigResponse{Seq: 999, Config: svc.ConfigJSON{UnicastSize: 1}})
	journal, live, err := d.state()
	if err != nil {
		t.Fatal(err)
	}
	d.check(journal, live, s.Instance().LiveConfig(), "after the drive")
	found := false
	for _, v := range d.Violations {
		if v.Oracle == OracleAcceptedLost && strings.Contains(v.Detail, "seq 999") {
			found = true
		}
	}
	if !found {
		t.Fatalf("fabricated acknowledgment not flagged; violations: %v", d.Violations)
	}
}

// TestLedgerNamesTheBrokenOracle feeds the ledger both campaigns share
// one fabricated fault at a time and expects exactly the matching
// oracle — under the crash campaign's three names, and all under
// svc-accepted-then-lost for the one-life service campaign.
func TestLedgerNamesTheBrokenOracle(t *testing.T) {
	cfg := func(n int) svc.ConfigJSON { return svc.ConfigJSON{UnicastSize: n} }
	entry := func(seq uint64, n int) svc.JournalEntry { return svc.JournalEntry{Seq: seq, Config: cfg(n)} }
	initial := cfg(8)
	clean := []svc.JournalEntry{entry(1, 16), entry(2, 32)}
	cases := []struct {
		name    string
		acks    []svc.ReconfigResponse
		seen    []svc.JournalEntry // an earlier observation, checked clean first
		journal []svc.JournalEntry
		live    svc.ConfigJSON
		oracle  string // "" = no violation; otherwise the crash-campaign name
		detail  string
	}{
		{name: "clean", acks: []svc.ReconfigResponse{{Seq: 2, Config: cfg(32)}}, seen: clean[:1], journal: clean, live: cfg(32)},
		{name: "empty journal, live is initial", live: initial},
		{name: "lost ack", acks: []svc.ReconfigResponse{{Seq: 3, Config: cfg(64)}}, journal: clean, live: cfg(32),
			oracle: OracleCrashAcceptedLost, detail: "seq 3 missing"},
		{name: "ack differs from journal", acks: []svc.ReconfigResponse{{Seq: 2, Config: cfg(33)}}, journal: clean, live: cfg(32),
			oracle: OracleCrashAcceptedLost, detail: "seq 2: acknowledged config differs"},
		{name: "sequence gap", journal: []svc.JournalEntry{entry(1, 16), entry(3, 32)}, live: cfg(32),
			oracle: OracleCrashAcceptedLost, detail: "sequence gap"},
		{name: "rewritten entry", seen: clean, journal: []svc.JournalEntry{entry(1, 17), entry(2, 32)}, live: cfg(32),
			oracle: OracleCrashJournalImmutable, detail: "seq 1 changed"},
		{name: "live is not the tail", journal: clean, live: cfg(16),
			oracle: OracleCrashLiveIsTail, detail: "not the journal tail"},
		{name: "empty journal, live moved", live: cfg(9),
			oracle: OracleCrashLiveIsTail, detail: "not the journal tail"},
	}
	for _, c := range cases {
		for _, oneLife := range []bool{false, true} {
			l := newLedger(OracleCrashAcceptedLost, OracleCrashJournalImmutable, OracleCrashLiveIsTail)
			want := c.oracle
			if oneLife {
				l = newLedger(OracleAcceptedLost, OracleAcceptedLost, OracleAcceptedLost)
				if want != "" {
					want = OracleAcceptedLost
				}
			}
			if len(c.seen) > 0 {
				l.check(c.seen, c.seen[len(c.seen)-1].Config, initial, "round 0")
			}
			for _, a := range c.acks {
				l.ack(a)
			}
			l.check(c.journal, c.live, initial, "round 1")
			switch {
			case want == "" && len(l.Violations) != 0:
				t.Errorf("%s: clean observation flagged: %v", c.name, l.Violations)
			case want != "" && (len(l.Violations) != 1 || l.Violations[0].Oracle != want ||
				!strings.Contains(l.Violations[0].Detail, c.detail) || !strings.Contains(l.Violations[0].Detail, "round 1")):
				t.Errorf("%s: violations %v, want one %s mentioning %q in round 1", c.name, l.Violations, want, c.detail)
			}
		}
	}
	// Two acknowledgments of one seq with different configs are a loss
	// whatever the journal later says.
	l := newLedger(OracleCrashAcceptedLost, OracleCrashJournalImmutable, OracleCrashLiveIsTail)
	l.ack(svc.ReconfigResponse{Seq: 1, Config: cfg(16)})
	l.ack(svc.ReconfigResponse{Seq: 1, Config: cfg(17)})
	if len(l.Violations) != 1 || l.Violations[0].Oracle != OracleCrashAcceptedLost {
		t.Errorf("double ack: violations %v", l.Violations)
	}
}
