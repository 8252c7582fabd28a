package chaos

// Crash-recovery campaign: kill-anywhere chaos for the durable control
// plane.
//
// Where the service campaign attacks one in-process svc.Service, the
// crash campaign drives a REAL tsnserve subprocess with -state-dir
// under reconfiguration load and kills it hard — SIGKILL at a seeded
// random moment, or deterministically via the WAL crash hook
// (-crash-after-wal-writes N) which exits the process immediately
// after its Nth WAL append: after an intent record, between intent and
// commit, after the commit append but before its fsync, optionally
// leaving a deliberately torn frame behind. Then it restarts the
// server on the same state directory and judges recovery:
//
//   - crash-accepted-then-lost: every reconfiguration a client ever
//     saw acknowledged with 2xx — across every previous life of the
//     process — is present in the recovered journal with the exact
//     acknowledged configuration, and journal sequence numbers are
//     gapless from 1;
//   - crash-journal-immutable: a journal entry, once observed, is
//     byte-identical in every later observation — recovery never
//     rewrites history;
//   - crash-live-is-tail: the recovered live configuration equals the
//     recovered journal's tail entry — an un-acked in-flight
//     transaction is either fully present (committed and journaled
//     before the kill) or fully absent, never half-applied.
//
// The kill plan is a pure function of (Seed, round), so a fixed seed
// replays the same mix of armed, torn and random-timing kills.

import (
	"bytes"
	"context"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"strconv"
	"syscall"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/svc"
	"github.com/tsnbuilder/tsnbuilder/internal/wal"
)

// Crash-recovery oracle names.
const (
	// OracleCrashAcceptedLost rejects a run where a 2xx-acknowledged
	// reconfiguration from any pre-kill life is missing from the
	// recovered journal, acknowledged with a different configuration
	// than recovered, or where recovered sequence numbers have gaps.
	OracleCrashAcceptedLost = "crash-accepted-then-lost"
	// OracleCrashJournalImmutable rejects a run where an already
	// observed journal entry changed across a restart.
	OracleCrashJournalImmutable = "crash-journal-immutable"
	// OracleCrashLiveIsTail rejects a run where the recovered live
	// configuration is not the recovered journal's tail — the partial
	// in-flight state signature.
	OracleCrashLiveIsTail = "crash-live-is-tail"
)

// CrashOptions configures one crash-recovery campaign.
type CrashOptions struct {
	// Seed fixes the kill plan (kill kinds, WAL-append offsets, delays,
	// request mix).
	Seed uint64
	// Kills is how many kill→recover rounds to run (default 50).
	Kills int
	// ServerPath is the tsnserve binary to run (required).
	ServerPath string
	// StateDir is the durable state directory shared by every life of
	// the server. Empty creates a fresh temp directory, removed on a
	// passing run and kept for inspection on a failing one.
	StateDir string
	// Budget bounds the campaign wall clock; rounds stop being started
	// once it is spent (in-flight rounds finish). Zero means 10 minutes.
	Budget time.Duration
	// Log, when set, receives progress lines.
	Log func(format string, args ...any)
}

// CrashSummary is a finished crash campaign's outcome.
type CrashSummary struct {
	// Planned/Kills are the requested and executed kill rounds (they
	// differ only when the budget expires early).
	Planned int `json:"planned"`
	Kills   int `json:"kills"`
	// ArmedKills died on the deterministic WAL-append crash hook;
	// TornKills additionally left a torn frame; RandomKills were
	// SIGKILLed at a seeded random moment under load.
	ArmedKills  int `json:"armed_kills"`
	TornKills   int `json:"torn_kills"`
	RandomKills int `json:"random_kills"`
	// Accepted counts 2xx reconfiguration acknowledgments across every
	// life of the server; Recovered counts journal entries observed
	// after the final recovery.
	Accepted  int `json:"accepted"`
	Recovered int `json:"recovered"`
	// StateDir is where the durable state lives (kept on failure).
	StateDir string `json:"state_dir"`
	Verdict
}

// crashPlan is one round's kill decision, derived purely from the seed.
type crashPlan struct {
	armed bool          // die via the WAL crash hook instead of timer SIGKILL
	after int64         // armed: WAL appends before death (odd = between intent and commit)
	torn  bool          // armed: leave a torn frame behind
	delay time.Duration // random: SIGKILL after this much load time
}

// planRound derives round r's kill plan. Odd `after` values land
// between a transaction's intent and commit appends, even values land
// right after a commit append (before its fsync returns) — both sides
// of the durability boundary get hit many times in 50 rounds.
func planRound(rng *rand.Rand) crashPlan {
	switch rng.Intn(3) {
	case 0: // deterministic, clean cut
		return crashPlan{armed: true, after: 1 + int64(rng.Intn(8))}
	case 1: // deterministic with a torn tail behind it
		return crashPlan{armed: true, after: 1 + int64(rng.Intn(8)), torn: true}
	default: // kill -9 at a random moment under load
		return crashPlan{delay: time.Duration(5+rng.Intn(120)) * time.Millisecond}
	}
}

// serverProc is one life of the tsnserve subprocess.
type serverProc struct {
	ctl
	cmd  *exec.Cmd
	out  *bytes.Buffer
	done chan error
}

// crashFreePort grabs an ephemeral port and releases it for the
// subprocess to bind. The tiny race window is acceptable for a local
// campaign.
func crashFreePort() (int, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	port := ln.Addr().(*net.TCPAddr).Port
	ln.Close()
	return port, nil
}

// startServer spawns one life of tsnserve on the shared state dir.
func startServer(client *http.Client, serverPath, stateDir string, plan crashPlan) (*serverProc, error) {
	port, err := crashFreePort()
	if err != nil {
		return nil, fmt.Errorf("free port: %w", err)
	}
	addr := "127.0.0.1:" + strconv.Itoa(port)
	args := []string{
		"-addr", addr,
		"-state-dir", stateDir,
		// A small managed network keeps each life's build time in the
		// low milliseconds; it must be identical across lives — the
		// state dir is pinned to the workload's parameter hash.
		"-switches", "2", "-flows", "4",
		"-checkpoint-every", "4", // rotate often: kills land in every store phase
	}
	if plan.armed {
		args = append(args, "-crash-after-wal-writes", strconv.FormatInt(plan.after, 10))
		if plan.torn {
			args = append(args, "-crash-torn")
		}
	}
	p := &serverProc{
		ctl:  ctl{base: "http://" + addr, client: client},
		cmd:  exec.Command(serverPath, args...),
		out:  &bytes.Buffer{},
		done: make(chan error, 1),
	}
	p.cmd.Stdout = p.out
	p.cmd.Stderr = p.out
	if err := p.cmd.Start(); err != nil {
		return nil, fmt.Errorf("start %s: %w", serverPath, err)
	}
	go func() { p.done <- p.cmd.Wait() }()
	return p, nil
}

// kill SIGKILLs the life and waits for it to reap.
func (p *serverProc) kill() {
	_ = p.cmd.Process.Kill()
	<-p.done
}

// waitExit waits for a self-terminating (armed) life to die, escalating
// to SIGKILL after the timeout.
func (p *serverProc) waitExit(timeout time.Duration) (selfExit bool) {
	select {
	case <-p.done:
		return true
	case <-time.After(timeout):
		p.kill()
		return false
	}
}

// waitReady polls /readyz until the server answers 200 (replay done) or
// the deadline passes. 503 recovering responses along the way are the
// expected shape of the window.
func (p *serverProc) waitReady(timeout time.Duration) error {
	deadline := time.Now().Add(timeout)
	for time.Now().Before(deadline) {
		select {
		case err := <-p.done:
			return fmt.Errorf("server died before ready (%v); output:\n%s", err, tail(p.out.String(), 1200))
		default:
		}
		resp, err := p.client.Get(p.base + "/readyz")
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		time.Sleep(5 * time.Millisecond)
	}
	return fmt.Errorf("server not ready within %v; output:\n%s", timeout, tail(p.out.String(), 1200))
}

// tail returns at most the last n bytes of s.
func tail(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return "..." + s[len(s)-n:]
}

// verify holds the life's recovered journal and live config to the
// three crash oracles and returns the journal length.
func (p *serverProc) verify(l *ledger, round int, initial svc.ConfigJSON) int {
	journal, live, err := p.state()
	if err != nil {
		l.errf("round %d: %v", round, err)
		return 0
	}
	l.check(journal, live, initial, fmt.Sprintf("round %d", round))
	return len(journal)
}

// drive fires grow-reconfigurations at the life until stop closes, the
// request cap is hit, or the server dies under it. Every 2xx is
// recorded as an ack the kill must not erase.
func (p *serverProc) drive(l *ledger, rng *rand.Rand, initial svc.ConfigJSON, stop <-chan struct{}, maxReqs int) {
	for i := 0; i < maxReqs; i++ {
		select {
		case <-stop:
			return
		default:
		}
		m := 2 + rng.Intn(4)
		status, ack, err := p.postReconfig(growDelta(initial, rng.Intn(3), m))
		switch {
		case status == 0:
			return // the kill landed mid-request: expected, not an error
		case err != nil:
			l.errf("%v", err)
		case status == http.StatusOK:
			l.ack(ack)
		}
	}
}

// RunCrashCampaign runs the kill→recover loop: each round starts a
// fresh life of tsnserve on the shared state directory, verifies the
// previous kill recovered cleanly, drives load and kills again. A
// final life verifies the last kill and is drained gracefully.
func RunCrashCampaign(opts CrashOptions) (*CrashSummary, error) {
	if opts.ServerPath == "" {
		return nil, fmt.Errorf("chaos: crash campaign needs ServerPath (a tsnserve binary)")
	}
	if opts.Kills <= 0 {
		opts.Kills = 50
	}
	if opts.Budget <= 0 {
		opts.Budget = 10 * time.Minute
	}
	logf := opts.Log
	if logf == nil {
		logf = func(string, ...any) {}
	}
	stateDir := opts.StateDir
	ownDir := false
	if stateDir == "" {
		dir, err := os.MkdirTemp("", "tsn-crash-*")
		if err != nil {
			return nil, fmt.Errorf("chaos: state dir: %w", err)
		}
		stateDir, ownDir = dir, true
	}

	client := &http.Client{Timeout: 10 * time.Second}
	led := newLedger(OracleCrashAcceptedLost, OracleCrashJournalImmutable, OracleCrashLiveIsTail)
	sum := &CrashSummary{Planned: opts.Kills, StateDir: stateDir}
	rng := rand.New(rand.NewSource(int64(opts.Seed)))
	ctx, cancel := context.WithTimeout(context.Background(), opts.Budget)
	defer cancel()

	var initial svc.ConfigJSON
	haveInitial := false
	logf("crash campaign: %d kills, seed %d, state %s", opts.Kills, opts.Seed, stateDir)
	for round := 0; round < opts.Kills; round++ {
		if ctx.Err() != nil {
			logf("budget spent after %d/%d kills", round, opts.Kills)
			break
		}
		plan := planRound(rng)
		p, err := startServer(client, opts.ServerPath, stateDir, plan)
		if err != nil {
			led.errf("round %d: %v", round, err)
			break
		}
		if err := p.waitReady(30 * time.Second); err != nil {
			led.errf("round %d: %v", round, err)
			p.kill()
			break
		}
		if !haveInitial {
			// The very first life's pre-commit configuration anchors the
			// live-is-tail oracle for empty journals.
			if err := p.getJSON("/v1/config", &initial); err != nil {
				led.errf("round 0: fetch initial config: %v", err)
				p.kill()
				break
			}
			haveInitial = true
		}
		p.verify(&led, round, initial)

		stop := make(chan struct{})
		driveDone := make(chan struct{})
		go func() {
			defer close(driveDone)
			p.drive(&led, rand.New(rand.NewSource(int64(opts.Seed)*7_919+int64(round))), initial, stop, 40)
		}()
		if plan.armed {
			// The crash hook fires on the Nth WAL append: the load above
			// is what walks it there.
			if p.waitExit(20 * time.Second) {
				sum.ArmedKills++
				if plan.torn {
					sum.TornKills++
				}
				if code := p.cmd.ProcessState.ExitCode(); code != CrashHookExitCode {
					led.errf("round %d: armed life exited %d, want %d; output:\n%s",
						round, code, CrashHookExitCode, tail(p.out.String(), 1200))
				}
			} else {
				led.errf("round %d: armed crash (after %d appends) never fired", round, plan.after)
			}
		} else {
			time.Sleep(plan.delay)
			p.kill()
			sum.RandomKills++
		}
		close(stop)
		<-driveDone
		sum.Kills++
		if (round+1)%10 == 0 {
			logf("%d/%d kills (%d armed, %d torn, %d random), %d acks so far",
				round+1, opts.Kills, sum.ArmedKills, sum.TornKills, sum.RandomKills, len(led.acked))
		}
	}

	// The final life: verify the last kill recovered, then drain it
	// gracefully — the clean-shutdown path gets judged by the same
	// oracles as every crash.
	if haveInitial {
		p, err := startServer(client, opts.ServerPath, stateDir, crashPlan{})
		if err != nil {
			led.errf("final life: %v", err)
		} else if err := p.waitReady(30 * time.Second); err != nil {
			led.errf("final life: %v", err)
			p.kill()
		} else {
			sum.Recovered = p.verify(&led, opts.Kills, initial)
			_ = p.cmd.Process.Signal(syscall.SIGTERM)
			if !p.waitExit(20 * time.Second) {
				led.errf("final life: graceful drain timed out")
			}
		}
	}

	sum.Accepted = len(led.acked)
	sum.Verdict = led.Verdict
	if ownDir && !sum.Failed() {
		_ = os.RemoveAll(stateDir)
	}
	logf("crash campaign: %d kills, %d acks, %d journal entries recovered, %d violations, %d errors",
		sum.Kills, sum.Accepted, sum.Recovered, len(sum.Violations), len(sum.Errors))
	return sum, nil
}

// CrashHookExitCode re-exports the WAL crash hook's exit code so the
// campaign's callers can distinguish armed deaths in logs.
const CrashHookExitCode = wal.CrashExitCode
