package harness

import (
	"encoding/json"
	"fmt"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/vm"
	"repro/internal/wal"
	"repro/internal/workloads"
)

// checkpointBase sanitizes a benchmark name into a filesystem-safe stem.
func checkpointBase(bench string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '-', r == '_':
			return r
		}
		return '_'
	}, bench)
}

// JournalCheckpointFor names a journal-backed checkpoint for one benchmark ×
// mode inside dir — the crash-safe layout `pybench -resume` uses.
func JournalCheckpointFor(dir, bench string, mode vm.Mode) *JournalCheckpoint {
	return NewJournalCheckpoint(filepath.Join(dir,
		fmt.Sprintf("%s_%s.ckpt.wal", checkpointBase(bench), mode)))
}

// checkpointVersion guards the on-disk format. Version 2 keyed progress by
// invocation id instead of arrival order (the parallel sharded runner
// completes invocations out of order). Version 3 persists the slot records
// as CRC-framed write-ahead journal appends.
const checkpointVersion = 3

// slotRecord is the complete supervised outcome of one invocation slot:
// its attempt log, its measurement (nil when every attempt failed), and the
// corrupted-sample count its failed attempts quarantined. It is both the
// unit the supervisor aggregates into a Result and the unit a checkpoint
// persists.
type slotRecord struct {
	Index       int
	Log         InvocationLog
	Invocation  *Invocation `json:",omitempty"`
	Quarantined int         `json:",omitempty"`
}

// checkpointKey derives the experiment identity a checkpoint belongs to.
// Resuming under any changed configuration — different benchmark, seed,
// design, fault model, or retry policy — is refused rather than silently
// mixing incompatible partial results.
func checkpointKey(b workloads.Benchmark, opts Options, so SupervisorOptions, faultSeed uint64) string {
	return fmt.Sprintf("v%d|%s|%s|seed=%d|inv=%d|iter=%d|noise=%+v|cost=%+v|counters=%v|freq=%g|maxsteps=%d|wall=%s|faults=%s|fseed=%d|retries=%d|quorum=%d",
		checkpointVersion, b.Name, opts.Mode, opts.Seed, opts.Invocations,
		opts.Iterations, opts.Noise, opts.Cost, opts.WithCounters, opts.FreqGHz,
		opts.MaxStepsPerInvocation, opts.WallBudget,
		so.Faults, faultSeed, so.MaxRetries, so.Quorum)
}

// journalEntry is one record in a journal-backed checkpoint: exactly one
// field is set. The header is always record zero; every later record is one
// completed slot (re-completions of an index supersede earlier records, so
// replay keeps the last).
type journalEntry struct {
	Header *journalHeader `json:",omitempty"`
	Slot   *slotRecord    `json:",omitempty"`
}

// journalHeader identifies the experiment a journal belongs to.
type journalHeader struct {
	Version int
	Key     string
}

// JournalCheckpoint is the crash-safe store: progress is a write-ahead
// journal of CRC-framed records (see internal/wal), so persisting one more
// completed invocation is a single fsynced append rather than a full-state
// rewrite. kill -9 at any byte offset loses at most the record being
// written; recovery truncates the torn tail, discards anything that fails
// its checksum, and resumes from every intact slot.
type JournalCheckpoint struct {
	fsys wal.FS
	path string

	mu     sync.Mutex
	jn     *wal.Journal
	opened bool
	header *journalHeader
	slots  map[int]slotRecord
	report wal.RecoveryReport
}

// NewJournalCheckpoint opens (lazily) a journal-backed store at path.
func NewJournalCheckpoint(path string) *JournalCheckpoint {
	return NewJournalCheckpointFS(wal.OSFS{}, path)
}

// NewJournalCheckpointFS is NewJournalCheckpoint with an explicit
// filesystem — the chaos suite passes a fault-injecting FS here so storage
// faults attack the exact production write path.
func NewJournalCheckpointFS(fsys wal.FS, path string) *JournalCheckpoint {
	return &JournalCheckpoint{fsys: fsys, path: path}
}

// open replays the journal into memory. Caller holds mu.
func (j *JournalCheckpoint) open() error {
	if j.opened {
		return nil
	}
	jn, records, report, err := wal.Open(j.fsys, j.path)
	if err != nil {
		return fmt.Errorf("opening checkpoint journal %s: %w", j.path, err)
	}
	j.jn, j.report, j.opened = jn, report, true
	j.slots = map[int]slotRecord{}
	for i, rec := range records {
		var e journalEntry
		if err := json.Unmarshal(rec, &e); err != nil {
			return fmt.Errorf("decoding checkpoint journal record %d: %w", i, err)
		}
		switch {
		case e.Header != nil:
			j.header = e.Header
		case e.Slot != nil:
			j.slots[e.Slot.Index] = *e.Slot
		}
	}
	return nil
}

// resume replays the journal and returns its completed slots keyed by
// invocation id, plus what recovery found on open. The slots are nil for an
// empty or never-written journal; an error means the journal cannot be
// decoded or belongs to a different experiment configuration.
func (j *JournalCheckpoint) resume(key string) (map[int]slotRecord, wal.RecoveryReport, error) {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.open(); err != nil {
		return nil, wal.RecoveryReport{}, fmt.Errorf("loading checkpoint: %w", err)
	}
	if j.header == nil {
		return nil, j.report, nil
	}
	if j.header.Key != key {
		return nil, j.report, fmt.Errorf("checkpoint belongs to a different experiment (saved %q, running %q); delete it or rerun with the original configuration",
			j.header.Key, key)
	}
	if j.header.Version != checkpointVersion {
		return nil, j.report, fmt.Errorf("checkpoint format v%d is not the supported v%d; delete it and rerun",
			j.header.Version, checkpointVersion)
	}
	return j.slots, j.report, nil
}

// AppendSlot persists one completed slot as one fsynced frame. The first
// append also writes the experiment header.
func (j *JournalCheckpoint) AppendSlot(key string, slot slotRecord) error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.open(); err != nil {
		return err
	}
	if j.header == nil {
		hdr := journalHeader{Version: checkpointVersion, Key: key}
		rec, err := json.Marshal(journalEntry{Header: &hdr})
		if err != nil {
			return err
		}
		if err := j.jn.Append(rec); err != nil {
			return err
		}
		j.header = &hdr
	}
	rec, err := json.Marshal(journalEntry{Slot: &slot})
	if err != nil {
		return err
	}
	if err := j.jn.Append(rec); err != nil {
		return err
	}
	j.slots[slot.Index] = slot
	return nil
}

// Derive returns the sibling journal namespaced by suffix, on the same
// filesystem (RunPair keeps each arm in its own journal). A nil store
// derives nil.
func (j *JournalCheckpoint) Derive(suffix string) *JournalCheckpoint {
	if j == nil {
		return nil
	}
	ext := filepath.Ext(j.path)
	base := strings.TrimSuffix(j.path, ext)
	return NewJournalCheckpointFS(j.fsys, base+"."+suffix+ext)
}

// Close releases the underlying journal file. The store reopens (and
// replays) on next use.
func (j *JournalCheckpoint) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.opened {
		return nil
	}
	j.opened = false
	j.header, j.slots = nil, nil
	return j.jn.Close()
}
