package wal

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Store is a crash-consistent directory of one checkpoint plus the WAL
// tail written since it. Both carry a generation number g:
//
//	checkpoint-<g>.ckpt   one framed record (the caller's snapshot)
//	wal-<g>.log           framed records appended after that snapshot
//
// Checkpoint writes the next generation's snapshot to a temp file,
// fsyncs it, renames it into place (the atomic cutover), fsyncs the
// directory, creates the new empty WAL and only then deletes the old
// generation — so a crash at any instant leaves either the old
// generation fully intact or the new one recoverable. Recovery picks
// the highest validly-framed checkpoint and replays its WAL; files of
// any other generation are stale and removed.
//
// Store methods are not goroutine-safe; the control plane's
// single-writer loop is the only caller.
type Store struct {
	dir string
	gen uint64
	w   *Writer
}

// Recovered is what OpenStore found on disk: the latest checkpoint
// snapshot (nil when the directory is fresh) and the WAL records
// appended after it, in order.
type Recovered struct {
	Checkpoint []byte
	Records    [][]byte
}

const (
	checkpointPrefix = "checkpoint-"
	checkpointSuffix = ".ckpt"
	walPrefix        = "wal-"
	walSuffix        = ".log"
	tmpSuffix        = ".tmp"
)

func checkpointName(gen uint64) string {
	return checkpointPrefix + strconv.FormatUint(gen, 10) + checkpointSuffix
}

func walName(gen uint64) string {
	return walPrefix + strconv.FormatUint(gen, 10) + walSuffix
}

// parseGen extracts the generation from a store file name, reporting
// whether it matched the prefix/suffix shape.
func parseGen(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	g, err := strconv.ParseUint(name[len(prefix):len(name)-len(suffix)], 10, 64)
	return g, err == nil
}

// OpenStore opens (creating if needed) the store at dir and recovers
// its contents: highest valid checkpoint, then the matching WAL with
// its torn tail truncated. Interior corruption in either file fails
// the open loudly — a store that lies is worse than one that refuses.
func OpenStore(dir string) (*Store, *Recovered, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, fmt.Errorf("wal: store dir: %w", err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("wal: store dir: %w", err)
	}
	var ckptGens, walGens []uint64
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, tmpSuffix) {
			// A checkpoint that never reached its rename: dead on arrival.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if g, ok := parseGen(name, checkpointPrefix, checkpointSuffix); ok {
			ckptGens = append(ckptGens, g)
		}
		if g, ok := parseGen(name, walPrefix, walSuffix); ok {
			walGens = append(walGens, g)
		}
	}
	sort.Slice(ckptGens, func(i, j int) bool { return ckptGens[i] > ckptGens[j] })

	rec := &Recovered{}
	gen := uint64(1)
	if len(ckptGens) > 0 {
		gen = ckptGens[0]
		snap, err := readCheckpoint(filepath.Join(dir, checkpointName(gen)))
		if err != nil {
			return nil, nil, err
		}
		rec.Checkpoint = snap
	}
	w, records, err := OpenWriter(filepath.Join(dir, walName(gen)))
	if err != nil {
		return nil, nil, err
	}
	rec.Records = records
	s := &Store{dir: dir, gen: gen, w: w}
	// Every other generation is stale: superseded checkpoints, or a WAL
	// whose checkpoint already absorbed it mid-rotation.
	for _, g := range ckptGens[min(1, len(ckptGens)):] {
		_ = os.Remove(filepath.Join(dir, checkpointName(g)))
	}
	for _, g := range walGens {
		if g != gen {
			_ = os.Remove(filepath.Join(dir, walName(g)))
		}
	}
	if err := s.syncDir(); err != nil {
		w.Close()
		return nil, nil, err
	}
	return s, rec, nil
}

// readCheckpoint reads the single framed snapshot record a checkpoint
// file holds, validating its checksum.
func readCheckpoint(path string) ([]byte, error) {
	records, valid, err := ReadFile(path)
	if err != nil {
		return nil, fmt.Errorf("wal: checkpoint %s: %w", filepath.Base(path), err)
	}
	info, statErr := os.Stat(path)
	if statErr != nil {
		return nil, fmt.Errorf("wal: checkpoint %s: %w", filepath.Base(path), statErr)
	}
	// A checkpoint is renamed into place whole: a torn or multi-record
	// checkpoint file was never written by us.
	if len(records) != 1 || valid != info.Size() {
		return nil, &CorruptError{Offset: valid, Reason: fmt.Sprintf("checkpoint %s is not one whole record", filepath.Base(path))}
	}
	return records[0], nil
}

// Append appends one record to the current WAL generation. Durable
// only after Sync.
func (s *Store) Append(payload []byte) error { return s.w.Append(payload) }

// Sync makes every appended record durable — the commit point.
func (s *Store) Sync() error { return s.w.Sync() }

// Checkpoint atomically replaces the store's contents with snapshot
// and rotates to a fresh, empty WAL. On return the snapshot is
// durable and the previous generation is gone.
func (s *Store) Checkpoint(snapshot []byte) error {
	next := s.gen + 1
	final := filepath.Join(s.dir, checkpointName(next))
	tmp := final + tmpSuffix
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return fmt.Errorf("wal: checkpoint: %w", err)
	}
	if _, err := f.Write(AppendFrame(nil, snapshot)); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("wal: checkpoint sync: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("wal: checkpoint close: %w", err)
	}
	if err := os.Rename(tmp, final); err != nil {
		return fmt.Errorf("wal: checkpoint rename: %w", err)
	}
	if err := s.syncDir(); err != nil {
		return err
	}
	// The snapshot is durable under the new generation; cut the WAL
	// over and drop the superseded files.
	w, records, err := OpenWriter(filepath.Join(s.dir, walName(next)))
	if err != nil {
		return err
	}
	if len(records) != 0 {
		w.Close()
		return fmt.Errorf("wal: rotation found %d records in fresh wal-%d", len(records), next)
	}
	old := s.gen
	oldW := s.w
	s.w, s.gen = w, next
	_ = oldW.Close()
	_ = os.Remove(filepath.Join(s.dir, walName(old)))
	_ = os.Remove(filepath.Join(s.dir, checkpointName(old)))
	return s.syncDir()
}

// syncDir fsyncs the store directory so renames and creates are
// durable.
func (s *Store) syncDir() error {
	d, err := os.Open(s.dir)
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	err = d.Sync()
	d.Close()
	if err != nil {
		return fmt.Errorf("wal: sync dir: %w", err)
	}
	return nil
}

// Dir returns the store directory.
func (s *Store) Dir() string { return s.dir }

// Close syncs and closes the store.
func (s *Store) Close() error { return s.w.Close() }
