package wal

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func testRecords(n int) [][]byte {
	recs := make([][]byte, n)
	for i := range recs {
		recs[i] = []byte(fmt.Sprintf(`{"slot":%d,"payload":"record-%d-%s"}`,
			i, i, string(bytes.Repeat([]byte{'x'}, i%7))))
	}
	return recs
}

func writeJournal(t *testing.T, path string, recs [][]byte) {
	t.Helper()
	j, got, rep, err := Open(OSFS{}, path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	if len(got) != 0 || !rep.Clean() {
		t.Fatalf("fresh journal not empty: %d records, report %v", len(got), rep)
	}
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatalf("Append: %v", err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

func TestAppendAndRecover(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	recs := testRecords(5)
	writeJournal(t, path, recs)

	j, got, rep, err := Open(OSFS{}, path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	defer j.Close()
	if !rep.Clean() || rep.Records != 5 {
		t.Fatalf("unexpected report: %+v", rep)
	}
	if len(got) != len(recs) {
		t.Fatalf("recovered %d records, want %d", len(got), len(recs))
	}
	for i := range recs {
		if !bytes.Equal(got[i], recs[i]) {
			t.Fatalf("record %d mismatch: got %q want %q", i, got[i], recs[i])
		}
	}
}

func TestEmptyRecordRoundTrips(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	writeJournal(t, path, [][]byte{{}, []byte("a"), {}})
	_, got, rep, err := Open(OSFS{}, path)
	if err != nil {
		t.Fatalf("reopen: %v", err)
	}
	if rep.Records != 3 || len(got) != 3 || len(got[0]) != 0 || len(got[2]) != 0 {
		t.Fatalf("empty records mishandled: %d records, report %+v", len(got), rep)
	}
}

func TestClosedJournalRefusesAppend(t *testing.T) {
	path := filepath.Join(t.TempDir(), "test.wal")
	j, _, _, err := Open(OSFS{}, path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	j.Close()
	if err := j.Append([]byte("x")); err == nil {
		t.Fatal("Append on a closed journal should fail")
	}
}

// TestTornTailTruncationAtEveryOffset is the crash-at-any-byte property:
// for every truncation point of a recorded journal, recovery must yield an
// exact prefix of the original records — never a mangled record — and must
// leave the on-disk journal appendable.
func TestTornTailTruncationAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	recs := testRecords(6)
	writeJournal(t, full, recs)
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}

	path := filepath.Join(dir, "torn.wal")
	for cut := 0; cut < len(raw); cut++ {
		if err := os.WriteFile(path, raw[:cut], 0o644); err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		j, got, rep, err := Open(OSFS{}, path)
		if err != nil {
			t.Fatalf("cut %d: Open: %v", cut, err)
		}
		if rep.CorruptRecords != 0 {
			t.Fatalf("cut %d: truncation misclassified as corruption: %+v", cut, rep)
		}
		assertPrefix(t, fmt.Sprintf("cut %d", cut), got, recs)
		// The repaired journal must accept appends and recover them.
		if err := j.Append([]byte("post-crash")); err != nil {
			t.Fatalf("cut %d: append after repair: %v", cut, err)
		}
		j.Close()
		_, again, rep2, err := Open(OSFS{}, path)
		if err != nil || !rep2.Clean() {
			t.Fatalf("cut %d: reopen after repair: %v report %+v", cut, err, rep2)
		}
		if len(again) != len(got)+1 || string(again[len(again)-1]) != "post-crash" {
			t.Fatalf("cut %d: post-repair append lost: %d vs %d records", cut, len(again), len(got)+1)
		}
	}
}

// TestBitFlipAtEveryOffset is the corruption property: flipping any single
// byte of the journal must never surface a record that differs from the
// original at its position. Recovery either drops the damaged suffix
// (reporting it as corruption or a torn tail) or, when the flip hits
// nothing load-bearing, returns the records unchanged.
func TestBitFlipAtEveryOffset(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.wal")
	recs := testRecords(4)
	writeJournal(t, full, recs)
	raw, err := os.ReadFile(full)
	if err != nil {
		t.Fatalf("reading journal: %v", err)
	}

	path := filepath.Join(dir, "flip.wal")
	for off := 0; off < len(raw); off++ {
		mut := append([]byte(nil), raw...)
		mut[off] ^= 0x41
		if err := os.WriteFile(path, mut, 0o644); err != nil {
			t.Fatalf("flip %d: %v", off, err)
		}
		j, got, rep, err := Open(OSFS{}, path)
		if err != nil {
			t.Fatalf("flip %d: Open: %v", off, err)
		}
		j.Close()
		if len(got) == len(recs) && rep.Clean() {
			t.Fatalf("flip %d: corruption went completely undetected", off)
		}
		assertPrefix(t, fmt.Sprintf("flip %d", off), got, recs)
	}
}

// assertPrefix fails unless got is an exact prefix of want.
func assertPrefix(t *testing.T, ctx string, got, want [][]byte) {
	t.Helper()
	if len(got) > len(want) {
		t.Fatalf("%s: recovered %d records from %d originals", ctx, len(got), len(want))
	}
	for i := range got {
		if !bytes.Equal(got[i], want[i]) {
			t.Fatalf("%s: record %d corrupted silently: got %q want %q", ctx, i, got[i], want[i])
		}
	}
}

// TestCorruptMiddleRecordIsReportedLoudly pins the corruption-vs-crash
// distinction: damage before the tail must be flagged as CorruptRecords,
// not silently folded into a torn tail.
func TestCorruptMiddleRecordIsReportedLoudly(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "test.wal")
	recs := testRecords(5)
	writeJournal(t, path, recs)
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the third record: two frames in, past the
	// header of frame 3.
	off := 0
	for i := 0; i < 2; i++ {
		_, next, res := decodeFrame(raw, off)
		if res != decodeOK {
			t.Fatalf("fixture decode failed at %d", i)
		}
		off = next
	}
	raw[off+frameHeaderSize] ^= 0xFF
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}

	j, got, rep, err := Open(OSFS{}, path)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	j.Close()
	if len(got) != 2 {
		t.Fatalf("recovered %d records, want the 2 before the corruption", len(got))
	}
	if rep.CorruptRecords == 0 || rep.DiscardedBytes == 0 {
		t.Fatalf("corruption not reported: %+v", rep)
	}
	if rep.Clean() {
		t.Fatal("report claims clean recovery over corruption")
	}
}
