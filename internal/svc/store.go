package svc

// The durable store is the crash-consistency layer under the managed
// instance: every accepted reconfiguration is journaled to a
// write-ahead log as intent → commit/abort records around the
// single-writer commit path, and the instance's control state is
// periodically folded into an atomically-renamed checkpoint with WAL
// rotation (internal/wal).
//
// Record discipline, per transaction, all on the control loop:
//
//	intent  {txn, candidate config}   appended before validation, made
//	                                  stable at the commit point (the
//	                                  reconfig.OnAttempt hook syncs it
//	                                  before the first staged op runs);
//	commit  {txn, seq, config}        appended and fsynced after the
//	                                  transaction verified in force —
//	                                  the 2xx ack is written only after
//	                                  this sync returns;
//	abort   {txn}                     appended for rejections and
//	                                  rollbacks (durable at the next
//	                                  commit's sync; losing one in a
//	                                  crash is harmless — replay treats
//	                                  a trailing unpaired intent as the
//	                                  in-flight transaction that died).
//
// Replay rebuilds the journal from checkpoint + WAL tail: commit
// records must be seq-gapless, and an unpaired intent anywhere but the
// tail is loud corruption (the single-writer loop never interleaves
// transactions).

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math"

	"github.com/tsnbuilder/tsnbuilder/internal/wal"
	"github.com/tsnbuilder/tsnbuilder/internal/workload"
)

// WAL record types.
const (
	recIntent = "intent"
	recCommit = "commit"
	recAbort  = "abort"
)

// walRecord is one durable control-plane event.
type walRecord struct {
	T   string `json:"t"`
	Txn uint64 `json:"txn"`
	// Seq is set on commit records: the journal position acknowledged
	// to the client.
	Seq uint64 `json:"seq,omitempty"`
	// Config is the candidate (intent) or committed (commit)
	// configuration.
	Config *ConfigJSON `json:"config,omitempty"`
}

// checkpointImage is the snapshot a checkpoint file holds: everything
// needed to answer /v1/journal and /v1/config without the WAL.
type checkpointImage struct {
	// WorkloadHash pins the state to the managed workload: a state dir
	// from a differently-parameterized instance is refused, not
	// misapplied.
	WorkloadHash string `json:"workload_hash"`
	// Seq is the last committed sequence number.
	Seq uint64 `json:"seq"`
	// NextTxn is the next transaction id to assign.
	NextTxn uint64 `json:"next_txn"`
	// Journal is the committed-transaction journal, gapless from 1.
	Journal []JournalEntry `json:"journal"`
}

// recoveredImage is the replayed durable state handed to the instance.
type recoveredImage struct {
	Seq     uint64
	NextTxn uint64
	Journal []JournalEntry
	// Tail reports whether the WAL ended in an unpaired intent — the
	// in-flight transaction the crash interrupted. It recovered as
	// fully absent (diagnostic only).
	DanglingIntent bool
}

// workloadHash fingerprints the managed workload's parameters.
func workloadHash(p workload.Params) string {
	sum := sha256.Sum256([]byte(fmt.Sprintf(
		"%s|%d|%d|%d|%d|%d|%d|%d|%d|%d|%d",
		p.Topology, p.Switches, p.TSFlows, p.Hops, p.WireSize, p.SlotUs,
		p.RCMbps, p.BEMbps, p.FRERFlows, p.TSDeadline, p.Seed)))
	return hex.EncodeToString(sum[:8])
}

// durableStore owns the wal.Store plus the control-plane framing over
// it. Loop-goroutine only, like every other engine-adjacent mutation.
type durableStore struct {
	st      *wal.Store
	wlHash  string
	nextTxn uint64
}

// openDurable opens the state directory and replays checkpoint + WAL
// tail into a recoveredImage. Interior corruption, sequence gaps,
// interleaved intents and workload mismatches all fail loudly — a
// control plane that cannot trust its journal must not serve one.
func openDurable(dir string, wlHash string) (*durableStore, *recoveredImage, error) {
	st, rec, err := wal.OpenStore(dir)
	if err != nil {
		return nil, nil, err
	}
	img, err := replayDurable(rec, wlHash)
	if err != nil {
		st.Close()
		return nil, nil, err
	}
	ds := &durableStore{st: st, wlHash: wlHash, nextTxn: img.NextTxn}
	return ds, img, nil
}

// replayDurable folds a recovered checkpoint and WAL tail into the
// journal image.
func replayDurable(rec *wal.Recovered, wlHash string) (*recoveredImage, error) {
	img := &recoveredImage{NextTxn: 1}
	if rec.Checkpoint != nil {
		var ck checkpointImage
		if err := json.Unmarshal(rec.Checkpoint, &ck); err != nil {
			return nil, fmt.Errorf("svc: checkpoint decode: %w", err)
		}
		if ck.WorkloadHash != wlHash {
			return nil, fmt.Errorf("svc: state dir belongs to workload %s, this instance is %s — refusing to mix journals",
				ck.WorkloadHash, wlHash)
		}
		for i, e := range ck.Journal {
			if e.Seq != uint64(i)+1 {
				return nil, fmt.Errorf("svc: checkpoint journal entry %d has seq %d: gap", i, e.Seq)
			}
		}
		if ck.Seq != uint64(len(ck.Journal)) {
			return nil, fmt.Errorf("svc: checkpoint seq %d disagrees with journal length %d", ck.Seq, len(ck.Journal))
		}
		img.Seq = ck.Seq
		img.NextTxn = max(ck.NextTxn, 1)
		img.Journal = append(img.Journal, ck.Journal...)
	}
	openIntent := false
	var openTxn uint64
	for i, raw := range rec.Records {
		var r walRecord
		if err := json.Unmarshal(raw, &r); err != nil {
			return nil, fmt.Errorf("svc: wal record %d decode: %w", i, err)
		}
		switch r.T {
		case recIntent:
			if openIntent {
				return nil, fmt.Errorf("svc: wal record %d: intent txn %d while txn %d is still open — interleaved transactions", i, r.Txn, openTxn)
			}
			if r.Config == nil {
				return nil, fmt.Errorf("svc: wal record %d: intent without candidate config", i)
			}
			if r.Txn == math.MaxUint64 {
				return nil, fmt.Errorf("svc: wal record %d: intent txn %d leaves no next transaction id", i, r.Txn)
			}
			openIntent, openTxn = true, r.Txn
			if r.Txn >= img.NextTxn {
				img.NextTxn = r.Txn + 1
			}
		case recCommit:
			if !openIntent || r.Txn != openTxn {
				return nil, fmt.Errorf("svc: wal record %d: commit for txn %d without its intent", i, r.Txn)
			}
			if r.Config == nil {
				return nil, fmt.Errorf("svc: wal record %d: commit without config", i)
			}
			if r.Seq != img.Seq+1 {
				return nil, fmt.Errorf("svc: wal record %d: commit seq %d after seq %d — journal gap", i, r.Seq, img.Seq)
			}
			img.Seq = r.Seq
			img.Journal = append(img.Journal, JournalEntry{Seq: r.Seq, Config: *r.Config})
			openIntent = false
		case recAbort:
			if !openIntent || r.Txn != openTxn {
				return nil, fmt.Errorf("svc: wal record %d: abort for txn %d without its intent", i, r.Txn)
			}
			openIntent = false
		default:
			return nil, fmt.Errorf("svc: wal record %d: unknown type %q", i, r.T)
		}
	}
	// A trailing unpaired intent is the transaction the crash caught
	// in flight: it was never acknowledged, and replaying it as absent
	// is exactly the fully-present-or-fully-absent rule.
	img.DanglingIntent = openIntent
	return img, nil
}

// takeTxn assigns the next transaction id.
func (ds *durableStore) takeTxn() uint64 {
	id := ds.nextTxn
	ds.nextTxn++
	return id
}

// append writes one record without syncing.
func (ds *durableStore) append(r walRecord) error {
	raw, err := json.Marshal(r)
	if err != nil {
		return fmt.Errorf("svc: wal encode: %w", err)
	}
	return ds.st.Append(raw)
}

// appendSync writes one record and makes the whole log durable — the
// commit point an ack may be sent after.
func (ds *durableStore) appendSync(r walRecord) error {
	if err := ds.append(r); err != nil {
		return err
	}
	return ds.st.Sync()
}

// checkpoint folds the given control state into a new checkpoint
// generation, rotating the WAL.
func (ds *durableStore) checkpoint(seq uint64, journal []JournalEntry) error {
	raw, err := json.Marshal(checkpointImage{
		WorkloadHash: ds.wlHash,
		Seq:          seq,
		NextTxn:      ds.nextTxn,
		Journal:      journal,
	})
	if err != nil {
		return fmt.Errorf("svc: checkpoint encode: %w", err)
	}
	return ds.st.Checkpoint(raw)
}
