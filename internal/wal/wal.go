// Package wal implements the crash-safe write-ahead journal that backs the
// supervisor's checkpoints. The paper's methodology requires that every
// planned invocation's sample either lands intact or is accounted for as
// degradation; a checkpoint layer that can be destroyed by a kill -9
// mid-write silently violates that. The journal is crash-only by design:
//
//   - records are appended as CRC32C-framed frames, each written with a
//     single write call and fsynced, so a torn write tears at most the
//     final frame;
//   - recovery truncates a torn tail (the expected artifact of a crash
//     mid-append) and rewrites the journal to its longest intact prefix
//     via a temp file and atomic rename;
//   - a CRC mismatch *before* the tail is corruption, not a crash
//     artifact: the record and everything after it are discarded, and the
//     event is reported loudly in the RecoveryReport rather than trusted.
//
// All I/O goes through the FS interface so the chaos harness can inject
// torn writes, ENOSPC, and bit flips underneath the exact production
// write path.
package wal

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io/fs"
)

// frameHeaderSize is the per-record overhead: 4-byte big-endian payload
// length followed by a 4-byte CRC32C of the payload.
const frameHeaderSize = 8

// MaxRecordSize bounds one record's payload. A decoded length above it is
// treated as corruption — it protects recovery from allocating gigabytes
// because a length field took a bit flip.
const MaxRecordSize = 1 << 26

// castagnoli is the CRC32C polynomial table (the checksum used by iSCSI,
// ext4, and most journaling formats; hardware-accelerated on amd64/arm64).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// RecoveryReport documents what Open found in an existing journal. It is
// carried up to Result.Supervision so a resumed experiment's report states
// exactly what storage damage it recovered from.
type RecoveryReport struct {
	// Records is the number of intact records recovered.
	Records int
	// TornTailBytes counts trailing bytes discarded as an interrupted
	// append — the normal artifact of a crash mid-write.
	TornTailBytes int `json:",omitempty"`
	// CorruptRecords counts CRC-mismatched frames found before the tail.
	// Unlike a torn tail this is evidence of storage corruption.
	CorruptRecords int `json:",omitempty"`
	// DiscardedBytes counts the bytes dropped after the first corrupt
	// record (nothing beyond it can be trusted: framing is lost).
	DiscardedBytes int `json:",omitempty"`
}

// Clean reports whether recovery found a pristine journal.
func (r RecoveryReport) Clean() bool {
	return r.TornTailBytes == 0 && r.CorruptRecords == 0 && r.DiscardedBytes == 0
}

// String renders a one-line account suitable as a report footnote.
func (r RecoveryReport) String() string {
	if r.Clean() {
		return fmt.Sprintf("journal: %d record(s), clean", r.Records)
	}
	return fmt.Sprintf("journal: recovered %d record(s); truncated %d torn tail byte(s); discarded %d corrupt record(s) (%d byte(s))",
		r.Records, r.TornTailBytes, r.CorruptRecords, r.DiscardedBytes)
}

// Journal is an append-only record log on one file.
type Journal struct {
	path string
	f    File
}

// encodeFrame frames one payload: length, CRC32C, payload — one buffer so
// the append below is a single write call.
func encodeFrame(payload []byte) []byte {
	buf := make([]byte, frameHeaderSize+len(payload))
	binary.BigEndian.PutUint32(buf[0:4], uint32(len(payload)))
	binary.BigEndian.PutUint32(buf[4:8], crc32.Checksum(payload, castagnoli))
	copy(buf[frameHeaderSize:], payload)
	return buf
}

// decodeResult classifies one decode step.
type decodeResult int

const (
	decodeOK decodeResult = iota
	decodeTorn
	decodeCorrupt
)

// decodeFrame reads the record starting at data[off]. A frame that runs
// past the end of data is torn; a bogus length or CRC mismatch is corrupt.
func decodeFrame(data []byte, off int) (payload []byte, next int, res decodeResult) {
	if off+frameHeaderSize > len(data) {
		return nil, off, decodeTorn
	}
	n := int(binary.BigEndian.Uint32(data[off : off+4]))
	if n > MaxRecordSize {
		return nil, off, decodeCorrupt
	}
	want := binary.BigEndian.Uint32(data[off+4 : off+8])
	start := off + frameHeaderSize
	if start+n > len(data) {
		return nil, off, decodeTorn
	}
	payload = data[start : start+n]
	if crc32.Checksum(payload, castagnoli) != want {
		return nil, off, decodeCorrupt
	}
	return payload, start + n, decodeOK
}

// decodeAll walks the journal bytes and returns every intact record plus
// the recovery report and the byte length of the trusted prefix.
func decodeAll(data []byte) (records [][]byte, goodLen int, rep RecoveryReport) {
	off := 0
	for off < len(data) {
		payload, next, res := decodeFrame(data, off)
		switch res {
		case decodeOK:
			records = append(records, append([]byte(nil), payload...))
			rep.Records++
			off = next
		case decodeTorn:
			rep.TornTailBytes = len(data) - off
			return records, off, rep
		case decodeCorrupt:
			// Framing is untrustworthy past a corrupt record: count how
			// many frames *look* parseable for the report, then discard.
			rep.CorruptRecords = 1 + countParseable(data, off)
			rep.DiscardedBytes = len(data) - off
			return records, off, rep
		}
	}
	return records, off, rep
}

// countParseable estimates how many further frames follow a corrupt one by
// skipping the corrupt frame's claimed extent. Best effort — it only feeds
// the recovery report, never the replay.
func countParseable(data []byte, off int) int {
	if off+frameHeaderSize > len(data) {
		return 0
	}
	n := int(binary.BigEndian.Uint32(data[off : off+4]))
	if n > MaxRecordSize || off+frameHeaderSize+n > len(data) {
		return 0
	}
	count := 0
	off += frameHeaderSize + n
	for off < len(data) {
		_, next, res := decodeFrame(data, off)
		if res != decodeOK {
			break
		}
		count++
		off = next
	}
	return count
}

// Open recovers the journal at path (absent = empty) and positions it for
// appending. The returned records are the longest trusted prefix; if the
// file held a torn tail or corruption, the on-disk journal is atomically
// rewritten to that prefix before Open returns, so a second crash during
// recovery still leaves a well-formed journal.
func Open(fsys FS, path string) (*Journal, [][]byte, RecoveryReport, error) {
	j := &Journal{path: path}
	data, err := fsys.ReadFile(path)
	if err != nil && !errors.Is(err, fs.ErrNotExist) {
		return nil, nil, RecoveryReport{}, fmt.Errorf("wal: reading %s: %w", path, err)
	}
	records, goodLen, rep := decodeAll(data)
	if goodLen < len(data) {
		// Rewrite to the trusted prefix via temp + rename so the repair
		// itself is atomic.
		if err := atomicRewrite(fsys, path, data[:goodLen]); err != nil {
			return nil, nil, rep, fmt.Errorf("wal: truncating damaged journal %s: %w", path, err)
		}
	}
	f, err := fsys.OpenAppend(path)
	if err != nil {
		return nil, nil, rep, fmt.Errorf("wal: opening %s for append: %w", path, err)
	}
	j.f = f
	return j, records, rep, nil
}

// Append durably appends one record: a single write of the framed record
// followed by fsync. When Append returns nil the record survives kill -9.
func (j *Journal) Append(payload []byte) error {
	if j.f == nil {
		return errors.New("wal: journal is closed")
	}
	if len(payload) > MaxRecordSize {
		return fmt.Errorf("wal: record of %d bytes exceeds MaxRecordSize", len(payload))
	}
	frame := encodeFrame(payload)
	if _, err := j.f.Write(frame); err != nil {
		return fmt.Errorf("wal: appending to %s: %w", j.path, err)
	}
	if err := j.f.Sync(); err != nil {
		return fmt.Errorf("wal: syncing %s: %w", j.path, err)
	}
	return nil
}

// Close releases the append handle. The journal on disk stays valid.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	return err
}
