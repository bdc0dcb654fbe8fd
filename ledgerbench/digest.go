package main

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"strings"

	"repro/internal/harness"
)

// digester hashes sample sets and experiment outputs into one digest. The
// encoding is exact: floats hash by their bits, so two digests are equal
// only when the sample sets are bit-identical.
type digester struct{ h hash.Hash }

func newDigester() *digester { return &digester{h: sha256.New()} }

func (d *digester) u64(v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	d.h.Write(b[:])
}

func (d *digester) str(s string) {
	d.u64(uint64(len(s)))
	d.h.Write([]byte(s))
}

// results hashes every invocation of every result: times, cycles, steps,
// checksum, counter snapshot and JIT activity.
func (d *digester) results(rs []*harness.Result) {
	d.u64(uint64(len(rs)))
	for _, r := range rs {
		d.str(r.Benchmark)
		d.str(r.Mode.String())
		d.u64(uint64(len(r.Invocations)))
		for _, inv := range r.Invocations {
			d.u64(uint64(len(inv.TimesSec)))
			for j := range inv.TimesSec {
				d.u64(math.Float64bits(inv.TimesSec[j]))
				d.u64(inv.Cycles[j])
				d.u64(inv.Steps[j])
			}
			d.str(inv.Checksum)
			if inv.Counters != nil {
				d.str(fmt.Sprintf("%+v %+v", *inv.Counters, inv.Mix))
			}
			d.u64(uint64(inv.JITTraces))
			d.u64(uint64(inv.JITBridges))
			d.u64(uint64(inv.GuardFails))
		}
	}
}

func (d *digester) sum() string { return hex.EncodeToString(d.h.Sum(nil)) }

// digestStore remembers the digest of every (workload, seed) a checkout
// has run, so a later run of the same seed must reproduce it.
type digestStore struct{ dir string }

func (s digestStore) path(key string) string {
	return filepath.Join(s.dir, "digests", key+".txt")
}

// check compares digest with the stored one for key, storing it on first
// sight. It returns an error on a mismatch.
func (s digestStore) check(key, digest string) error {
	p := s.path(key)
	old, err := os.ReadFile(p)
	if err == nil {
		if want := strings.TrimSpace(string(old)); want != digest {
			return fmt.Errorf("digest %s differs from the %s an earlier run of %s recorded", digest, want, key)
		}
		return nil
	}
	if !os.IsNotExist(err) {
		return fmt.Errorf("reading stored digest: %w", err)
	}
	if err := os.MkdirAll(filepath.Dir(p), 0o755); err != nil {
		return fmt.Errorf("storing digest: %w", err)
	}
	tmp := p + ".tmp"
	if err := os.WriteFile(tmp, []byte(digest+"\n"), 0o644); err != nil {
		return fmt.Errorf("storing digest: %w", err)
	}
	if err := os.Rename(tmp, p); err != nil {
		return fmt.Errorf("storing digest: %w", err)
	}
	return nil
}
