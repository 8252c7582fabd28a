package chaos

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"sync"

	"github.com/tsnbuilder/tsnbuilder/internal/svc"
)

// ctl is the control-plane client the service and crash campaigns drive
// a tsnserve through: one base URL, one http.Client.
type ctl struct {
	base   string
	client *http.Client
}

func (c ctl) getJSON(path string, v any) error {
	resp, err := c.client.Get(c.base + path)
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET %s: status %d", path, resp.StatusCode)
	}
	return json.NewDecoder(resp.Body).Decode(v)
}

// state fetches what the journal oracles judge: the committed journal
// and the configuration in force.
func (c ctl) state() (journal []svc.JournalEntry, live svc.ConfigJSON, err error) {
	if err = c.getJSON("/v1/journal", &journal); err != nil {
		return nil, live, fmt.Errorf("fetch journal: %w", err)
	}
	if err = c.getJSON("/v1/config", &live); err != nil {
		return nil, live, fmt.Errorf("fetch config: %w", err)
	}
	return journal, live, nil
}

// postReconfig POSTs one delta. Status 0 with an error is a transport
// failure; a 200 carries the parsed acknowledgment, or an error when
// its body does not parse.
func (c ctl) postReconfig(delta svc.ReconfigRequest) (status int, ack svc.ReconfigResponse, err error) {
	body, _ := json.Marshal(delta) // a struct of ints cannot fail to encode
	resp, err := c.client.Post(c.base+"/v1/reconfig", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, ack, err
	}
	rb, _ := io.ReadAll(resp.Body) // a torn body fails the parse below
	resp.Body.Close()
	if resp.StatusCode == http.StatusOK {
		if err := json.Unmarshal(rb, &ack); err != nil {
			return resp.StatusCode, ack, fmt.Errorf("reconfig 200 with unparseable body: %w", err)
		}
	}
	return resp.StatusCode, ack, nil
}

// growDelta asks for one of the three cheap tables at m times its
// initial size: an absolute target, so always a valid grow or sideways
// move, and bounded however long a campaign runs.
func growDelta(initial svc.ConfigJSON, table, m int) svc.ReconfigRequest {
	switch table {
	case 0:
		return svc.ReconfigRequest{UnicastSize: initial.UnicastSize * m}
	case 1:
		return svc.ReconfigRequest{MeterSize: initial.MeterSize * m}
	default:
		return svc.ReconfigRequest{ClassSize: initial.ClassSize * m}
	}
}

// Verdict is what a service or crash campaign found.
type Verdict struct {
	// Violations holds every oracle failure.
	Violations []Violation `json:"violations,omitempty"`
	// Errors holds infrastructure failures (transport errors, spawn,
	// readiness timeout).
	Errors []string `json:"errors,omitempty"`
}

// Failed reports whether any oracle rejected the run or the drive
// itself broke.
func (v *Verdict) Failed() bool { return len(v.Violations) > 0 || len(v.Errors) > 0 }

// ledger is a campaign's ground truth about one control plane across
// every life of its process: each 2xx acknowledgment a client saw, each
// journal entry ever observed, and the verdict so far. The in-process
// service campaign is the one-life case.
type ledger struct {
	// Oracle names for the three journal checks. The crash campaign
	// reports them apart; the service campaign files all three under
	// svc-accepted-then-lost.
	lost, immutable, tail string

	mu    sync.Mutex
	acked map[uint64]svc.ConfigJSON
	seen  map[uint64]svc.ConfigJSON
	Verdict
}

func newLedger(lost, immutable, tail string) ledger {
	return ledger{
		lost: lost, immutable: immutable, tail: tail,
		acked: make(map[uint64]svc.ConfigJSON), seen: make(map[uint64]svc.ConfigJSON),
	}
}

func (l *ledger) violate(oracle, format string, args ...any) {
	l.mu.Lock()
	l.violateLocked(oracle, format, args...)
	l.mu.Unlock()
}

func (l *ledger) violateLocked(oracle, format string, args ...any) {
	l.Violations = append(l.Violations, Violation{Oracle: oracle, Detail: fmt.Sprintf(format, args...)})
}

func (l *ledger) errf(format string, args ...any) {
	l.mu.Lock()
	l.Errors = append(l.Errors, fmt.Sprintf(format, args...))
	l.mu.Unlock()
}

// ack records one 2xx acknowledgment the kill (or the drain) must not
// erase.
func (l *ledger) ack(rr svc.ReconfigResponse) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if prev, dup := l.acked[rr.Seq]; dup && prev != rr.Config {
		l.violateLocked(l.lost, "seq %d acknowledged twice with different configs", rr.Seq)
	}
	l.acked[rr.Seq] = rr.Config
}

// check holds one observation of (journal, live config) to the journal
// oracles: sequence numbers gapless from 1, every acknowledged seq
// present with the acknowledged configuration, no entry different from
// an earlier observation of it, and the configuration in force equal
// to the journal tail — or to initial while nothing has committed: a
// rolled-back, wedged or killed transaction must never move it.
func (l *ledger) check(journal []svc.JournalEntry, live, initial svc.ConfigJSON, where string) {
	l.mu.Lock()
	defer l.mu.Unlock()
	want := initial
	journaled := make(map[uint64]bool, len(journal))
	for i, e := range journal {
		if e.Seq != uint64(i)+1 {
			l.violateLocked(l.lost, "%s: journal entry %d has seq %d: sequence gap", where, i, e.Seq)
		}
		if prev, ok := l.seen[e.Seq]; ok && prev != e.Config {
			l.violateLocked(l.immutable, "%s: journal seq %d changed between observations: %+v became %+v", where, e.Seq, prev, e.Config)
		}
		if cfg, ok := l.acked[e.Seq]; ok && cfg != e.Config {
			l.violateLocked(l.lost, "%s: seq %d: acknowledged config differs from journal", where, e.Seq)
		}
		l.seen[e.Seq] = e.Config
		journaled[e.Seq] = true
		want = e.Config
	}
	for seq := range l.acked {
		if !journaled[seq] {
			l.violateLocked(l.lost, "%s: 2xx-acknowledged seq %d missing from journal", where, seq)
		}
	}
	if live != want {
		l.violateLocked(l.tail, "%s: live config is not the journal tail (live %+v, want %+v)", where, live, want)
	}
}
