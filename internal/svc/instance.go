package svc

import (
	"context"
	"fmt"
	"net/http"
	"sync"
	"sync/atomic"
	"time"

	"github.com/tsnbuilder/tsnbuilder/internal/core"
	"github.com/tsnbuilder/tsnbuilder/internal/metrics"
	"github.com/tsnbuilder/tsnbuilder/internal/obs"
	"github.com/tsnbuilder/tsnbuilder/internal/reconfig"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
	"github.com/tsnbuilder/tsnbuilder/testbed"
)

// Refusal is a control-plane request's failure as its client sees it:
// the HTTP status, the body's error text and, when set, the Retry-After
// it carries. Instance.Reconfigure returns one for every outcome but a
// commit, built where that outcome is decided.
type Refusal struct {
	Code       int
	Msg        string
	RetryAfter time.Duration
}

func (r *Refusal) Error() string { return r.Msg }

// ErrInstanceClosed refuses work submitted after the instance shut down.
var ErrInstanceClosed = &Refusal{Code: http.StatusServiceUnavailable, Msg: "instance shutting down"}

// ErrRecovering refuses work while journal replay is running.
var ErrRecovering = &Refusal{Code: http.StatusServiceUnavailable, Msg: "recovering: journal replay in progress"}

// errNotStarted refuses a job whose deadline lapsed before its commit
// began: nothing was staged or touched.
var errNotStarted = &Refusal{Code: http.StatusGatewayTimeout, Msg: "deadline expired before commit started"}

// JournalEntry is one committed reconfiguration: the sequence number
// returned to the client and the configuration it put in force. The
// journal is the accepted-then-lost oracle's ground truth — every 2xx
// response must appear here, and the tail entry must match LiveConfig.
// With a durable store, every entry is also fsynced to the WAL before
// its 2xx is written, so the same oracle survives kill -9.
type JournalEntry struct {
	Seq    uint64     `json:"seq"`
	Config ConfigJSON `json:"config"`
}

// InstanceStatus is a point-in-time copy of the instance's control
// state, safe to read from any goroutine.
type InstanceStatus struct {
	Live    core.Config
	Seq     uint64
	Journal []JournalEntry
}

// Instance owns one long-running simulated network and the single
// control-loop goroutine through which every engine interaction is
// serialized — the discrete-event engine is single-threaded by
// contract, so HTTP handlers never touch it directly. Reconfiguration
// jobs queue onto the loop and commit one at a time; a job whose
// deadline expires while queued is shed before anything is staged, but
// once a commit begins it always runs to resolution — an in-flight
// commit is never aborted.
//
// A durable instance additionally journals every transaction through
// its store and starts in the recovering state: the first job on the
// loop replays the recovered journal onto the fresh network, then
// de-asserts recovering exactly once.
type Instance struct {
	net *testbed.Net
	reg *metrics.Registry
	srv *obs.Server // introspection over net; /events is published after every job

	store     *durableStore
	ckptEvery int

	jobs   chan func()
	closed atomic.Bool
	done   chan struct{}

	// recovering is asserted from construction until the replay job
	// completes (durable instances only); recoverEnds counts the
	// de-assertions — exactly one, guarded by recoverOnce.
	recovering  atomic.Bool
	recoverOnce sync.Once
	recoverEnds atomic.Int32

	// onHealth, when set, is invoked after every job with the
	// instance's health (NewInstance); read by the loop goroutine only.
	onHealth func(healthy bool)

	// The contract the fields below keep: the configuration in force is
	// the journal tail, or the instance is fenced. live, tail and fence
	// are written on the loop goroutine only, under mu.
	mu   sync.Mutex
	live core.Config // the network's configuration after the last job
	// tail is the journal's last configuration, or the boot
	// configuration while the journal is empty.
	tail core.Config
	// fence is why the network is not verified at tail; nil when it is.
	fence      error
	seq        uint64
	journal    []JournalEntry
	verifyErr  error
	walErr     error
	recoverErr error
}

// DefaultWorkload is the managed instance's fallback network.
func DefaultWorkload() workload.Params {
	return workload.Params{
		Topology: "linear", Switches: 4, TSFlows: 24, Hops: 2,
		WireSize: 200, SlotUs: 65, Seed: 1,
	}
}

// NewInstance builds the managed network of opts.Workload and starts
// its control loop. With opts.StateDir set it opens the durable store
// and replays checkpoint + WAL tail — corrupt or mismatched state is an
// error — and the instance starts recovering: the replay job is the
// first thing the loop runs, ahead of any submitted work. onHealth, when non-nil, is invoked after every job
// with the instance's health; it is taken here because the loop (and
// the replay job) starts before NewInstance returns.
func NewInstance(opts Options, onHealth func(healthy bool)) (*Instance, error) {
	opts.defaults()
	wl, err := workload.Build(opts.Workload)
	if err != nil {
		return nil, fmt.Errorf("svc: instance workload: %w", err)
	}
	reg := metrics.New()
	net, err := testbed.Build(testbed.Options{
		Design: wl.Design, Topo: wl.Topo, Flows: wl.Specs,
		Metrics: reg, Seed: opts.Workload.Seed,
		EnableWatchdog: true,
	})
	if err != nil {
		return nil, fmt.Errorf("svc: instance build: %w", err)
	}
	in := &Instance{
		net: net, reg: reg, ckptEvery: opts.CheckpointEvery,
		srv:      obs.NewServer(net.Attr, net.Flight),
		jobs:     make(chan func(), 64),
		done:     make(chan struct{}),
		live:     net.LiveConfig(),
		tail:     net.LiveConfig(),
		onHealth: onHealth,
	}
	in.srv.OnSubscribe(func() {
		select {
		case in.jobs <- func() {}: // an idle instance publishes at its end
		default: // a full queue publishes as its jobs end
		}
	})
	if opts.StateDir != "" {
		var img *recoveredImage
		if in.store, img, err = openDurable(opts.StateDir, workloadHash(opts.Workload)); err != nil {
			return nil, err
		}
		// The write-ahead rule at the commit point: the transaction's
		// intent record becomes stable before the first staged operation
		// mutates the engine, on every attempt.
		net.Reconfig.OnAttempt(func(*reconfig.Txn, int) {
			if err := in.store.st.Sync(); err != nil {
				in.setWALErr(err)
			}
		})
		in.recovering.Store(true)
		// Enqueued before loop starts: FIFO guarantees replay runs ahead
		// of any job a handler could submit.
		in.jobs <- func() { in.recoverJob(img, opts.recoverHold) }
	}
	go in.loop()
	return in, nil
}

// loop is the control goroutine: it executes queued jobs in FIFO order
// until Close's sentinel arrives. Every engine call in the process
// happens here, so /events is published at the end of each job.
func (in *Instance) loop() {
	defer close(in.done)
	for job := range in.jobs {
		if job == nil {
			return
		}
		job()
		in.srv.PublishEvents()
	}
}

// submit queues fn onto the control loop and waits for it to finish.
// The ctx only bounds the enqueue (errNotStarted when it expires first):
// once accepted, the job runs to completion and submit waits for it —
// callers must do their own deadline check inside fn if they want to
// shed late work.
func (in *Instance) submit(ctx context.Context, fn func()) error {
	if in.closed.Load() {
		return ErrInstanceClosed
	}
	ran := make(chan struct{})
	wrapped := func() { fn(); close(ran) }
	// Room in the queue enqueues without evaluating ctx.Done(), which
	// would arm the request deadline (see request); fn's own ctx.Err()
	// check still sheds a job whose deadline lapsed while queued.
	select {
	case in.jobs <- wrapped:
	default:
		select {
		case in.jobs <- wrapped:
		case <-ctx.Done():
			return errNotStarted
		case <-in.done:
			return ErrInstanceClosed
		}
	}
	select {
	case <-ran:
		return nil
	case <-in.done:
		// Closed with the job still queued (no handlers should be alive
		// at that point; this is a backstop, not a normal path).
		return ErrInstanceClosed
	}
}

// Close flushes the durable store and stops the control loop. The
// flush job and then the sentinel are FIFO-ordered behind any queued
// work, so accepted jobs resolve, then the WAL is synced and the
// journal checkpointed — a graceful drain and a crash converge to the
// same recovered state. Call only after the HTTP server has drained.
func (in *Instance) Close() {
	if in.closed.CompareAndSwap(false, true) {
		in.jobs <- func() { in.closeFlush() }
		in.jobs <- nil
	}
	<-in.done
}

// closeFlush runs on the loop as the last real job: it makes every
// journaled byte stable before the sentinel can possibly be observed.
func (in *Instance) closeFlush() {
	if in.store == nil {
		return
	}
	// A clean shutdown of a consistent instance folds the journal into
	// a fresh checkpoint; a degraded or still-recovering one just syncs
	// what the WAL already holds — never write a snapshot we are not
	// sure of.
	if !in.recovering.Load() && in.walError() == nil {
		if err := in.checkpoint(); err != nil {
			in.setWALErr(err)
		}
	}
	if err := in.store.st.Sync(); err != nil {
		in.setWALErr(err)
	}
	if err := in.store.st.Close(); err != nil {
		in.setWALErr(err)
	}
}

// checkpoint folds the current journal into a new store generation.
// Loop goroutine only.
func (in *Instance) checkpoint() error {
	in.mu.Lock()
	seq := in.seq
	journal := append([]JournalEntry(nil), in.journal...)
	in.mu.Unlock()
	return in.store.checkpoint(seq, journal)
}

// recoverJob replays the recovered journal image onto the freshly
// built network: one transaction from the build configuration to the
// journal tail, then the journal and sequence numbers install and the
// instance leaves the recovering state — exactly once.
func (in *Instance) recoverJob(img *recoveredImage, hold chan struct{}) {
	if hold != nil {
		<-hold
	}
	err := in.replay(img)
	if err != nil {
		in.mu.Lock()
		in.recoverErr = err
		in.mu.Unlock()
	} else {
		in.finishRecovery()
	}
	if in.onHealth != nil {
		in.onHealth(err == nil && !in.net.Watchdog.Degraded())
	}
}

// finishRecovery de-asserts the recovering state. Guarded so the
// transition happens exactly once no matter how often it is called.
func (in *Instance) finishRecovery() {
	in.recoverOnce.Do(func() {
		in.recovering.Store(false)
		in.recoverEnds.Add(1)
	})
}

// replay drives the network to the recovered journal's tail
// configuration and installs the journal. Loop goroutine only.
func (in *Instance) replay(img *recoveredImage) error {
	if img != nil && len(img.Journal) > 0 {
		tail := img.Journal[len(img.Journal)-1]
		if err := in.driveTo(tail.Config); err != nil {
			return fmt.Errorf("svc: replay to journal tail seq %d: %w", tail.Seq, err)
		}
	}
	in.mu.Lock()
	in.live, in.tail = in.net.LiveConfig(), in.net.LiveConfig()
	if img != nil {
		in.seq = img.Seq
		in.journal = append([]JournalEntry(nil), img.Journal...)
	}
	in.mu.Unlock()
	// Fold the replayed state into a clean generation: the WAL tail is
	// absorbed, a dangling in-flight intent is discarded for good, and
	// the next crash replays from here.
	if err := in.checkpoint(); err != nil {
		return fmt.Errorf("svc: post-recovery checkpoint: %w", err)
	}
	return nil
}

// driveTo brings the network to cfg and verifies it there: unless it is
// there and verifies clean, by one settled transaction, which also
// stages back whatever a wedged commit left. Loop goroutine only.
func (in *Instance) driveTo(cfg core.Config) error {
	if cfg == in.net.LiveConfig() && in.net.VerifyLive() == nil {
		return nil
	}
	txn, err := in.net.Reconfigure(cfg)
	if err != nil {
		return err
	}
	verr := in.settle(txn)
	if txn.State() != reconfig.StateCommitted {
		return fmt.Errorf("commit resolved %v: %w", txn.State(), txn.Err())
	}
	if verr != nil {
		return fmt.Errorf("verification: %w", verr)
	}
	return nil
}

// restore fences the instance for cause and drives the network back to
// the journal tail; it unfences only once the network verifies clean
// there. Loop goroutine only.
func (in *Instance) restore(cause error) {
	in.mu.Lock()
	in.fence = cause
	in.mu.Unlock()
	err := in.driveTo(in.tail)
	in.mu.Lock()
	defer in.mu.Unlock()
	in.live = in.net.LiveConfig()
	if err != nil {
		in.fence = fmt.Errorf("%v; back to the journal tail: %w", cause, err)
	} else {
		in.fence, in.verifyErr = nil, nil
	}
}

// Fenced returns why the instance is fenced — a commit moved the
// network but could not be journaled, and driving it back to the
// journal tail has not verified clean — or nil. A fenced instance
// refuses reconfigurations and is degraded.
func (in *Instance) Fenced() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.fence
}

// settle drives a begun transaction to resolution: the engine runs to
// the commit instant and through bounded retries, then one watchdog
// interval so the audit sweeps the post-commit state; it returns the
// live verification. Loop goroutine only.
func (in *Instance) settle(txn *reconfig.Txn) error {
	for txn.State() == reconfig.StatePrepared {
		in.net.Engine.RunUntil(txn.CommitTime() + 1)
	}
	in.net.Engine.RunFor(reconfig.WatchdogInterval + 1)
	return in.net.VerifyLive()
}

// Recovering reports whether journal replay is still in progress (or
// failed — a failed replay never de-asserts).
func (in *Instance) Recovering() bool { return in.recovering.Load() }

// RecoverErr returns the replay failure, if any.
func (in *Instance) RecoverErr() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.recoverErr
}

// Reconfigure runs one transactional reconfiguration against the live
// network and returns its ack, or the *Refusal that ends it instead.
// It serializes onto the control loop; ctx sheds the job if it is still
// queued at expiry, and is ignored from the moment the commit begins. On
// a durable instance the transaction is journaled: intent before
// validation, commit fsynced before the ack (and thus any 2xx) is
// returned, abort on rejection or rollback. A commit that leaves the
// network off the journal tail — it failed verification or its commit
// record — fences the instance (see restore); a fenced instance refuses
// the job (Fenced).
func (in *Instance) Reconfigure(ctx context.Context, req *ReconfigRequest) (ReconfigResponse, error) {
	if in.Recovering() {
		return ReconfigResponse{}, ErrRecovering
	}
	// One captured result, so the job costs one allocation for both.
	var res struct {
		ack ReconfigResponse
		err error
	}
	err := in.submit(ctx, func() { res.err = in.commit(ctx, req, &res.ack) })
	if err == nil {
		err = res.err
	}
	if err != nil {
		return ReconfigResponse{}, err
	}
	return res.ack, nil
}

// commit is Reconfigure's job on the loop: it returns nil on a commit,
// with ack filled, or the refusal of the first failure in the order
// shed, fenced, rejected (409), then the 500s: verify mismatch, WAL
// failure, rolled back, unresolved.
func (in *Instance) commit(ctx context.Context, req *ReconfigRequest, ack *ReconfigResponse) error {
	// Shed point: the deadline lapsed while queued; nothing staged.
	if ctx.Err() != nil {
		return errNotStarted
	}
	if in.fence != nil { // written on this goroutine only
		return &Refusal{Code: http.StatusServiceUnavailable, Msg: "fenced: " + in.fence.Error()}
	}
	cand, err := core.Overlay(in.net.LiveConfig(), req)
	if err != nil {
		return &Refusal{Code: http.StatusConflict, Msg: err.Error()}
	}
	var txnID uint64
	if in.store != nil {
		txnID = in.store.takeTxn()
		intent := cand // the record's copy: cand itself stays off the heap on the non-durable path
		if err := in.store.append(walRecord{T: recIntent, Txn: txnID, Config: &intent}); err != nil {
			in.setWALErr(err)
			return notDurable(err)
		}
	}
	txn, err := in.net.Reconfigure(cand)
	if err != nil {
		in.abortTxn(txnID)
		return &Refusal{Code: http.StatusConflict, Msg: err.Error()}
	}
	// From here the commit is in flight: it settles regardless of the
	// request deadline.
	verifyErr := in.settle(txn)
	*ack = ReconfigResponse{
		State: txn.State().String(), Attempts: txn.Attempts(),
		CommitAtNs: txn.CommitTime(), Config: in.net.LiveConfig(),
	}
	var refusal error
	switch {
	case verifyErr != nil:
		refusal = &Refusal{Code: http.StatusInternalServerError, Msg: "post-commit verification failed: " + verifyErr.Error()}
	case txn.State() == reconfig.StateRolledBack:
		msg := "commit failed, rolled back"
		if txn.Err() != nil {
			msg = txn.Err().Error()
		}
		refusal = &Refusal{Code: http.StatusInternalServerError, Msg: msg}
	case txn.State() != reconfig.StateCommitted:
		refusal = &Refusal{Code: http.StatusInternalServerError, Msg: fmt.Sprintf("transaction resolved %v", txn.State())}
	}
	committed := refusal == nil
	var walErr error
	if in.store != nil {
		if committed {
			// in.seq is only ever written on this goroutine; the
			// unlocked read is ordered by program order.
			rec := walRecord{T: recCommit, Txn: txnID, Seq: in.seq + 1, Config: &ack.Config}
			if walErr = in.store.appendSync(rec); walErr != nil {
				// The engine committed but durability failed: the ack
				// must not be sent, and the instance is degraded until
				// an operator intervenes.
				in.setWALErr(walErr)
				refusal = notDurable(walErr)
			}
		} else {
			in.abortTxn(txnID)
		}
	}

	in.mu.Lock()
	in.live = ack.Config
	in.verifyErr = verifyErr
	if refusal == nil {
		in.seq++
		ack.Seq = in.seq
		in.journal = append(in.journal, JournalEntry{Seq: in.seq, Config: ack.Config})
		in.tail = ack.Config
	}
	seq := in.seq
	in.mu.Unlock()
	switch {
	case verifyErr != nil:
		in.restore(verifyErr)
	case walErr != nil:
		in.restore(fmt.Errorf("commit not durable: %w", walErr))
	}
	if refusal == nil && in.store != nil && seq%uint64(in.ckptEvery) == 0 {
		if err := in.checkpoint(); err != nil {
			in.setWALErr(err)
		}
	}
	if in.onHealth != nil {
		in.onHealth(in.fence == nil && !in.net.Watchdog.Degraded())
	}
	return refusal
}

// notDurable refuses a transaction whose WAL record failed: the ack
// contract (2xx implies crash-survivable) cannot be met, so this is a
// failure even when the engine committed.
func notDurable(err error) error {
	return &Refusal{Code: http.StatusInternalServerError, Msg: "commit not durable: " + err.Error()}
}

// abortTxn journals a transaction's abort record (durable instances
// only). Unsynced by design: an abort that a crash loses replays as
// the same fully-absent transaction.
func (in *Instance) abortTxn(txnID uint64) {
	if in.store == nil {
		return
	}
	if err := in.store.append(walRecord{T: recAbort, Txn: txnID}); err != nil {
		// A lost abort record leaves a dangling interior intent for the
		// next recovery to trip over; surface the degradation now.
		in.setWALErr(err)
	}
}

// Arm injects a mid-commit failure through the control loop (chaos
// hook; see reconfig.Controller.Arm). A wedged commit leaves its
// applied prefix in place; the post-commit VerifyLive catches it and
// trips the breaker.
func (in *Instance) Arm(op, times int, wedged bool) error {
	return in.submit(context.Background(), func() { in.net.Reconfig.Arm(op, times, wedged) })
}

// MetricsSnapshot reads the simulation registry through the control
// loop: between jobs, on the goroutine that writes its unsynchronized
// cells, FIFO-ordered behind every acknowledged commit. ctx bounds the
// whole wait; a job that outlives its scraper ends in the buffered
// channel. After Close, <-in.done orders the caller's direct read.
func (in *Instance) MetricsSnapshot(ctx context.Context) (metrics.Snapshot, error) {
	res := make(chan metrics.Snapshot, 1)
	select {
	case in.jobs <- func() { res <- in.reg.Snapshot() }:
	case <-ctx.Done():
		return metrics.Snapshot{}, ctx.Err()
	case <-in.done: // nothing queued; the select below reads directly
	}
	select {
	case snap := <-res:
		return snap, nil
	case <-ctx.Done():
		return metrics.Snapshot{}, ctx.Err()
	case <-in.done:
		return in.reg.Snapshot(), nil
	}
}

// Health returns the live health board (watchdog-written, mutex-
// guarded, safe from any goroutine). A durability or replay failure
// degrades the instance like a wedged commit, whose error leads detail.
func (in *Instance) Health() (degraded bool, detail string) {
	d, detail, _, _ := in.net.Health.Status()
	in.mu.Lock()
	verifyErr, walErr, recoverErr, fence := in.verifyErr, in.walErr, in.recoverErr, in.fence
	in.mu.Unlock()
	switch {
	case verifyErr != nil:
		detail = verifyErr.Error()
	case fence != nil && detail == "":
		detail = "fenced: " + fence.Error()
	case recoverErr != nil && detail == "":
		detail = "recovery failed: " + recoverErr.Error()
	case walErr != nil && detail == "":
		detail = "durability failed: " + walErr.Error()
	}
	return d || verifyErr != nil || walErr != nil || recoverErr != nil || fence != nil, detail
}

func (in *Instance) walError() error {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.walErr
}

func (in *Instance) setWALErr(err error) {
	in.mu.Lock()
	if in.walErr == nil {
		in.walErr = err
	}
	in.mu.Unlock()
}

// Status copies the control state.
func (in *Instance) Status() InstanceStatus {
	in.mu.Lock()
	defer in.mu.Unlock()
	return InstanceStatus{Live: in.live, Seq: in.seq, Journal: append([]JournalEntry(nil), in.journal...)}
}

// LiveConfig returns the configuration the controller believes is in
// force.
func (in *Instance) LiveConfig() core.Config {
	in.mu.Lock()
	defer in.mu.Unlock()
	return in.live
}
