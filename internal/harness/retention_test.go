package harness

import (
	"runtime"
	"testing"

	"repro/internal/noise"
	"repro/internal/workloads"
)

// liveHeap returns the live heap after a full collection.
func liveHeap() uint64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.HeapAlloc
}

// TestFreshCompilesAreNotRetained compiles and runs many fresh copies of a
// workload, each on its own runner (as every daemon campaign does), and
// requires the live heap not to grow with their number: everything a
// compile produces — bytecode, analysis, register templates — must be
// owned by the compiled artifact and die with it.
func TestFreshCompilesAreNotRetained(t *testing.T) {
	b, ok := workloads.ByName("richards")
	if !ok {
		t.Fatal("no richards workload")
	}
	opts := Options{Invocations: 1, Iterations: 1, Noise: noise.None()}
	runFresh := func(n int) {
		for i := 0; i < n; i++ {
			if _, err := NewRunner().Run(b, opts); err != nil {
				t.Fatal(err)
			}
		}
	}
	runFresh(5) // warm every lazily built process-wide table
	before := liveHeap()
	const programs = 40
	runFresh(programs)
	after := liveHeap()
	t.Logf("live heap %d -> %d bytes over %d fresh programs", before, after, programs)
	// One retained richards compile costs kilobytes; allow 256 bytes per
	// program for allocator and runtime bookkeeping noise.
	if after > before && after-before > programs*256 {
		t.Errorf("live heap grew %d bytes over %d fresh programs (%d B/program)",
			after-before, programs, (after-before)/programs)
	}
}
