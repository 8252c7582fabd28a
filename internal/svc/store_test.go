package svc

import (
	"context"
	"encoding/json"
	"math"
	"net/http"
	"strings"
	"testing"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/sim"
	"github.com/tsnbuilder/tsnbuilder/internal/wal"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// waitRecovered polls until the instance has left the recovering state.
func waitRecovered(t *testing.T, s *Service) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for s.Instance().Recovering() {
		if time.Now().After(deadline) {
			t.Fatalf("instance still recovering after 10s: %v", s.Instance().RecoverErr())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// newDurableService is newTestService plus a state directory and
// recovery wait.
func newDurableService(t *testing.T, dir string, opts Options) (*Service, string) {
	t.Helper()
	opts.StateDir = dir
	s, ts := newTestService(t, opts)
	waitRecovered(t, s)
	return s, ts.URL
}

// TestServiceStatePersistence is the durability round trip: commit
// through HTTP, shut down cleanly, reopen the same state directory and
// observe byte-identical journal and live config — no replayed request
// lost, none invented.
func TestServiceStatePersistence(t *testing.T) {
	dir := t.TempDir()
	s1, url1 := newDurableService(t, dir, Options{})
	live := s1.Instance().LiveConfig()

	deltas := []string{
		`{"unicast_size":` + jsonInt(live.UnicastSize*2) + `}`,
		`{"meter_size":` + jsonInt(live.MeterSize*2) + `}`,
		`{"queue_depth":` + jsonInt(live.QueueDepth*2) + `}`,
	}
	for i, d := range deltas {
		resp, body := postJSON(t, url1+"/v1/reconfig", d, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reconfig %d: %d %s", i, resp.StatusCode, body)
		}
	}
	var journal1 []JournalEntry
	getJSON(t, url1+"/v1/journal", &journal1)
	var cfg1 ConfigJSON
	getJSON(t, url1+"/v1/config", &cfg1)

	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = s1.Shutdown(ctx)
	cancel()

	// A validation rejection (aborted txn) before shutdown must not
	// reappear, and the three commits must all survive.
	s2, url2 := newDurableService(t, dir, Options{})
	var journal2 []JournalEntry
	getJSON(t, url2+"/v1/journal", &journal2)
	if len(journal2) != len(journal1) {
		t.Fatalf("reopened journal has %d entries, want %d", len(journal2), len(journal1))
	}
	for i := range journal1 {
		if journal1[i] != journal2[i] {
			t.Fatalf("journal entry %d: %+v reopened as %+v", i, journal1[i], journal2[i])
		}
	}
	var cfg2 ConfigJSON
	getJSON(t, url2+"/v1/config", &cfg2)
	if cfg1 != cfg2 {
		t.Fatalf("live config %+v reopened as %+v", cfg1, cfg2)
	}
	// The sequence counter continues, never restarts: the next commit is
	// seq len+1.
	live2 := s2.Instance().LiveConfig()
	resp, body := postJSON(t, url2+"/v1/reconfig",
		`{"unicast_size":`+jsonInt(live2.UnicastSize*2)+`}`, nil)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-reopen reconfig: %d %s", resp.StatusCode, body)
	}
	var rr ReconfigResponse
	if err := json.Unmarshal(body, &rr); err != nil {
		t.Fatal(err)
	}
	if want := uint64(len(journal1) + 1); rr.Seq != want {
		t.Fatalf("post-reopen seq = %d, want %d", rr.Seq, want)
	}
}

// TestServiceRecoveringReadyz pins the recovering window's contract:
// while replay is stalled /readyz reports the distinct "recovering"
// status and the control endpoints refuse with 503; when replay lands
// the state de-asserts exactly once and readiness follows.
func TestServiceRecoveringReadyz(t *testing.T) {
	dir := t.TempDir()
	// Seed the state directory with one committed transaction.
	s0, url0 := newDurableService(t, dir, Options{})
	live := s0.Instance().LiveConfig()
	if resp, body := postJSON(t, url0+"/v1/reconfig",
		`{"unicast_size":`+jsonInt(live.UnicastSize*2)+`}`, nil); resp.StatusCode != http.StatusOK {
		t.Fatalf("seed reconfig: %d %s", resp.StatusCode, body)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = s0.Shutdown(ctx)
	cancel()

	hold := make(chan struct{})
	s, ts := newTestService(t, Options{StateDir: dir, recoverHold: hold})

	// Replay is stalled on the hold: the window is observable.
	resp, body := getRaw(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("recovering readyz: %d %s", resp.StatusCode, body)
	}
	var rz struct {
		Ready   bool     `json:"ready"`
		Status  string   `json:"status"`
		Reasons []string `json:"reasons"`
	}
	if err := json.Unmarshal(body, &rz); err != nil {
		t.Fatal(err)
	}
	if rz.Ready || rz.Status != "recovering" || len(rz.Reasons) == 0 {
		t.Fatalf("recovering readyz body: %s", body)
	}
	for _, ep := range []string{"/v1/config", "/v1/journal"} {
		if resp, _ := getRaw(t, ts.URL+ep); resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("recovering %s: %d, want 503", ep, resp.StatusCode)
		}
	}
	resp, body = postJSON(t, ts.URL+"/v1/reconfig", `{"meter_size":64}`, nil)
	if resp.StatusCode != http.StatusServiceUnavailable || !strings.Contains(string(body), "recovering") {
		t.Fatalf("recovering reconfig: %d %s", resp.StatusCode, body)
	}

	close(hold)
	waitRecovered(t, s)
	resp, body = getRaw(t, ts.URL+"/readyz")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("post-recovery readyz: %d %s", resp.StatusCode, body)
	}
	// The de-assertion happened exactly once.
	if n := s.Instance().recoverEnds.Load(); n != 1 {
		t.Fatalf("recovering de-asserted %d times, want exactly 1", n)
	}
	// And the replayed journal is intact.
	var journal []JournalEntry
	getJSON(t, ts.URL+"/v1/journal", &journal)
	if len(journal) != 1 || journal[0].Seq != 1 {
		t.Fatalf("replayed journal: %+v", journal)
	}
}

// TestServiceDrainReopenEquivalence: Close flushes and syncs the WAL
// before the sentinel returns, so a graceful drain and a reopen observe
// the same state a crash immediately after the last ack would — the
// checkpoint absorbs the full journal (fresh generation) and nothing
// depends on the torn-tail path.
func TestServiceDrainReopenEquivalence(t *testing.T) {
	dir := t.TempDir()
	s1, url1 := newDurableService(t, dir, Options{CheckpointEvery: 100})
	live := s1.Instance().LiveConfig()
	for i := 0; i < 3; i++ {
		live.UnicastSize *= 2
		resp, body := postJSON(t, url1+"/v1/reconfig",
			`{"unicast_size":`+jsonInt(live.UnicastSize)+`}`, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reconfig %d: %d %s", i, resp.StatusCode, body)
		}
	}
	before := s1.Instance().Status()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = s1.Shutdown(ctx)
	cancel()

	// Reopen replays from the close-time checkpoint: every pre-drain
	// commit present, in order, byte-identical.
	s2, _ := newDurableService(t, dir, Options{CheckpointEvery: 100})
	after := s2.Instance().Status()
	if after.Seq != before.Seq || len(after.Journal) != len(before.Journal) {
		t.Fatalf("drained seq %d/%d entries, reopened %d/%d",
			before.Seq, len(before.Journal), after.Seq, len(after.Journal))
	}
	for i := range before.Journal {
		if before.Journal[i] != after.Journal[i] {
			t.Fatalf("journal entry %d: %+v reopened as %+v", i, before.Journal[i], after.Journal[i])
		}
	}
	if before.Live != after.Live {
		t.Fatalf("live config changed across drain: %+v vs %+v", before.Live, after.Live)
	}
}

// TestServiceStateDirWorkloadMismatch: a state directory carries its
// workload's fingerprint; opening it under different parameters refuses
// rather than replaying a journal onto the wrong network.
func TestServiceStateDirWorkloadMismatch(t *testing.T) {
	dir := t.TempDir()
	s, _ := newDurableService(t, dir, Options{})
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = s.Shutdown(ctx)
	cancel()

	other := testWorkload()
	other.TSFlows += 2
	if _, err := NewService(Options{Workload: other, StateDir: dir}); err == nil {
		t.Fatal("mismatched workload accepted a foreign state dir")
	} else if !strings.Contains(err.Error(), "workload") {
		t.Fatalf("mismatch error: %v", err)
	}
}

// TestReplayDurableRecordDiscipline exercises the WAL replay state
// machine directly: gapless commits accumulate, a trailing unpaired
// intent is the fully-absent in-flight transaction, and structural
// violations (gaps, interleaving, orphan commits) are loud.
func TestReplayDurableRecordDiscipline(t *testing.T) {
	cfg := ConfigJSON{UnicastSize: 64}
	enc := func(recs ...walRecord) [][]byte {
		var out [][]byte
		for _, r := range recs {
			raw, err := json.Marshal(r)
			if err != nil {
				t.Fatal(err)
			}
			out = append(out, raw)
		}
		return out
	}
	intent := func(txn uint64) walRecord { return walRecord{T: recIntent, Txn: txn, Config: &cfg} }
	commit := func(txn, seq uint64) walRecord { return walRecord{T: recCommit, Txn: txn, Seq: seq, Config: &cfg} }

	t.Run("clean pair plus dangling intent", func(t *testing.T) {
		img, err := replayDurable(&wal.Recovered{Records: enc(
			intent(1), commit(1, 1), intent(2),
		)}, "h")
		if err != nil {
			t.Fatal(err)
		}
		if img.Seq != 1 || len(img.Journal) != 1 || !img.DanglingIntent {
			t.Fatalf("image: %+v", img)
		}
		if img.NextTxn != 3 {
			t.Fatalf("next txn = %d, want 3", img.NextTxn)
		}
	})
	t.Run("abort closes the transaction", func(t *testing.T) {
		img, err := replayDurable(&wal.Recovered{Records: enc(
			intent(1), walRecord{T: recAbort, Txn: 1}, intent(2), commit(2, 1),
		)}, "h")
		if err != nil || img.Seq != 1 || img.DanglingIntent {
			t.Fatalf("img %+v, err %v", img, err)
		}
	})
	for name, recs := range map[string][]walRecord{
		"interleaved intents":   {intent(1), intent(2)},
		"orphan commit":         {commit(1, 1)},
		"commit wrong txn":      {intent(1), commit(2, 1)},
		"seq gap":               {intent(1), commit(1, 2)},
		"orphan abort":          {walRecord{T: recAbort, Txn: 1}},
		"unknown type":          {{T: "mystery", Txn: 1}},
		"intent without config": {{T: recIntent, Txn: 1}},
		"last txn id":           {intent(math.MaxUint64), commit(math.MaxUint64, 1)},
	} {
		t.Run(name, func(t *testing.T) {
			if _, err := replayDurable(&wal.Recovered{Records: enc(recs...)}, "h"); err == nil {
				t.Fatal("structural violation replayed silently")
			}
		})
	}
}

// TestServiceCheckpointRotation: with CheckpointEvery=2 the store
// rotates generations as commits land, and a reopen from the newest
// checkpoint still reconstructs the exact journal.
func TestServiceCheckpointRotation(t *testing.T) {
	dir := t.TempDir()
	s1, url1 := newDurableService(t, dir, Options{CheckpointEvery: 2})
	live := s1.Instance().LiveConfig()
	for i := 0; i < 5; i++ {
		live.UnicastSize *= 2
		resp, body := postJSON(t, url1+"/v1/reconfig",
			`{"unicast_size":`+jsonInt(live.UnicastSize)+`}`, nil)
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("reconfig %d: %d %s", i, resp.StatusCode, body)
		}
	}
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	_ = s1.Shutdown(ctx)
	cancel()

	s2, url2 := newDurableService(t, dir, Options{CheckpointEvery: 2})
	var journal []JournalEntry
	getJSON(t, url2+"/v1/journal", &journal)
	if len(journal) != 5 {
		t.Fatalf("rotated journal has %d entries, want 5", len(journal))
	}
	for i, e := range journal {
		if e.Seq != uint64(i)+1 {
			t.Fatalf("entry %d seq %d", i, e.Seq)
		}
	}
	if got := s2.Instance().LiveConfig().UnicastSize; got != live.UnicastSize {
		t.Fatalf("live unicast %d, want %d", got, live.UnicastSize)
	}
}

// TestWorkloadHashGolden pins the state directory's workload
// fingerprint: a state directory written by an earlier build must still
// open, so the hash of a given workload never moves.
func TestWorkloadHashGolden(t *testing.T) {
	for _, c := range []struct {
		p    workload.Params
		want string
	}{
		{DefaultWorkload(), "8943d0ab7b2b97d8"},
		{workload.Params{Topology: "bidir-ring", Switches: 6, TSFlows: 32, Hops: 3, WireSize: 128, SlotUs: 130,
			RCMbps: 50, BEMbps: 20, FRERFlows: 8, TSDeadline: 250 * sim.Microsecond, Seed: 7}, "4bba4381abaefbe5"},
	} {
		if got := workloadHash(c.p); got != c.want {
			t.Errorf("workloadHash(%+v) = %s, want %s", c.p, got, c.want)
		}
	}
}

// FuzzReplayDurable feeds arbitrary checkpoint bytes and WAL records
// (one per line of recs; empty checkpoint bytes mean none) to
// replayDurable. It never panics, and it either errors or returns a
// journal numbered 1, 2, 3 … without gaps whose Seq is its length, and
// a NextTxn above every transaction the log names.
func FuzzReplayDurable(f *testing.F) {
	cfg := `{"unicast_size":64}`
	intent := func(txn string) string { return `{"t":"intent","txn":` + txn + `,"config":` + cfg + `}` }
	commit := func(txn, seq string) string {
		return `{"t":"commit","txn":` + txn + `,"seq":` + seq + `,"config":` + cfg + `}`
	}
	ck := `{"workload_hash":"h","seq":2,"next_txn":3,"journal":[{"seq":1,"config":` + cfg + `},{"seq":2,"config":` + cfg + `}]}`
	for _, seed := range [][2]string{
		{"", intent("1") + "\n" + commit("1", "1") + "\n" + intent("2")},
		{"", intent("1") + "\n" + `{"t":"abort","txn":1}` + "\n" + intent("2") + "\n" + commit("2", "1")},
		{ck, intent("3") + "\n" + commit("3", "3")},
		{ck, ""},
		{ck, intent("3") + "\n" + commit("3", "2")},
		{`{"workload_hash":"h","seq":1,"journal":[{"seq":2}]}`, ""},
		{`{"workload_hash":"other","seq":0,"journal":[]}`, ""},
		{`{"workload_hash":"h","seq":5,"journal":[]}`, ""},
		{"{", intent("1")},
		{"", intent("18446744073709551615") + "\n" + commit("18446744073709551615", "1")},
		{"", `{"t":"mystery","txn":1}`},
		{"", commit("1", "1")},
		{"", "\x00\xff"},
	} {
		f.Add([]byte(seed[0]), seed[1])
	}
	f.Fuzz(func(t *testing.T, checkpoint []byte, recs string) {
		rec := &wal.Recovered{}
		if len(checkpoint) > 0 {
			rec.Checkpoint = checkpoint
		}
		if recs != "" {
			for _, line := range strings.Split(recs, "\n") {
				rec.Records = append(rec.Records, []byte(line))
			}
		}
		img, err := replayDurable(rec, "h")
		if err != nil {
			return
		}
		for i, e := range img.Journal {
			if e.Seq != uint64(i)+1 {
				t.Fatalf("journal entry %d has seq %d", i, e.Seq)
			}
		}
		if img.Seq != uint64(len(img.Journal)) {
			t.Fatalf("seq %d, journal length %d", img.Seq, len(img.Journal))
		}
		for _, raw := range rec.Records {
			var r walRecord
			if json.Unmarshal(raw, &r) == nil && img.NextTxn <= r.Txn {
				t.Fatalf("next txn %d does not exceed logged txn %d", img.NextTxn, r.Txn)
			}
		}
	})
}
