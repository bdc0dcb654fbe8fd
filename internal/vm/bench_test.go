package vm

import (
	"testing"

	"repro/internal/minipy"
)

// Wall-clock microkernels for the interpreter fast path. Unlike the simulated
// counters (steps/cycles), these measure real host ns/op, so they are the
// instrument for Tier-A host-level optimizations: frame pooling, inline
// caches, interning, and dispatch restructuring. `make bench-go` runs them
// through cmd/benchjson and compares against the committed BENCH_vm.json
// baseline (captured on the register tier).

// benchConfig returns the interpreter config every microkernel runs under.
func benchConfig(b *testing.B) Config {
	b.Helper()
	return Config{Mode: ModeInterp}
}

// compileBench compiles src once and fails the benchmark on error.
func compileBench(b *testing.B, src string) *minipy.Code {
	b.Helper()
	code, err := minipy.CompileSource(src)
	if err != nil {
		b.Fatal(err)
	}
	if err := minipy.Verify(code); err != nil {
		b.Fatal(err)
	}
	return code
}

// runKernel executes the module once per b.N loop on a fresh interpreter,
// then calls run(). The module body is tiny; run() holds the hot loop.
func runKernel(b *testing.B, src string) {
	b.Helper()
	code := compileBench(b, src)
	cfg := benchConfig(b)
	// Build one throwaway interp to validate the kernel before timing.
	in := New(cfg)
	if _, err := in.RunModule(code); err != nil {
		b.Fatal(err)
	}
	if _, err := in.CallGlobal("run"); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := New(cfg)
		if _, err := in.RunModule(code); err != nil {
			b.Fatal(err)
		}
		if _, err := in.CallGlobal("run"); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkDispatchArith is the pure dispatch microkernel: a tight loop of
// local arithmetic, no calls, no globals. The accumulator is reduced mod
// 8192 so every intermediate stays in the interned small-int range — the
// kernel measures the dispatch switch plus operand-stack traffic, not
// large-int boxing (BenchmarkForRange covers boxing).
func BenchmarkDispatchArith(b *testing.B) {
	runKernel(b, `
def run():
    s = 0
    i = 0
    while i < 2000:
        s = (s + i * 3 - (i // 2)) % 8192
        i = i + 1
    return s
`)
}

// BenchmarkCallFib is the call-path microkernel: recursive fib stresses
// frame setup, locals allocation, and return handling.
func BenchmarkCallFib(b *testing.B) {
	runKernel(b, `
def fib(n):
    if n < 2:
        return n
    return fib(n - 1) + fib(n - 2)

def run():
    return fib(14)
`)
}

// BenchmarkAttrMethod is the attribute microkernel: repeated method lookup
// and bound-call on an instance (LOAD_ATTR through the class chain).
func BenchmarkAttrMethod(b *testing.B) {
	runKernel(b, `
class Counter:
    def __init__(self):
        self.n = 0
    def bump(self, k):
        self.n = self.n + k
        return self.n

def run():
    c = Counter()
    i = 0
    while i < 600:
        c.bump(1)
        c.bump(2)
        i = i + 1
    return c.n
`)
}

// BenchmarkGlobalLookup is the global-lookup microkernel: a loop whose body
// reads module globals and builtins every iteration (LOAD_GLOBAL pressure).
// The accumulator is reduced mod 8192 to keep intermediates in the interned
// small-int range, so name resolution rather than boxing dominates.
func BenchmarkGlobalLookup(b *testing.B) {
	runKernel(b, `
SCALE = 3
OFFSET = 7

def run():
    s = 0
    i = 0
    while i < 1200:
        s = (s + SCALE * i + OFFSET - len([i])) % 8192
        i = i + 1
    return s
`)
}

// BenchmarkForRange is the iterator microkernel: for-over-range exercises
// GetIter/ForIter and per-element Int boxing (the interning target).
func BenchmarkForRange(b *testing.B) {
	runKernel(b, `
def run():
    s = 0
    for i in range(3000):
        s = s + i
    return s
`)
}

// BenchmarkProbeCodeID measures runFrame entry overhead with a probe
// attached: before the codeState refactor every frame entry re-resolved the
// code's id through the codeIDs map (the satellite-1 hot-path fix).
func BenchmarkProbeCodeID(b *testing.B) {
	code := compileBench(b, `
def leaf(x):
    return x + 1

def run():
    s = 0
    i = 0
    while i < 400:
        s = leaf(s)
        i = i + 1
    return s
`)
	cfg := benchConfig(b)
	cfg.Probe = &nullProbe{}
	in := New(cfg)
	if _, err := in.RunModule(code); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := in.CallGlobal("run"); err != nil {
			b.Fatal(err)
		}
	}
}

// nullProbe is the cheapest possible Probe: it forces the probe-attached
// paths (codeID resolution, OnOp/OnBranch/OnMem calls) without doing any
// cache-model work, so the benchmark isolates the interpreter's own overhead.
type nullProbe struct{}

func (nullProbe) OnOp(op minipy.Op, instrs uint64) uint64 { return 0 }
func (nullProbe) OnBranch(site uint64, taken bool) uint64 { return 0 }
func (nullProbe) OnMem(addr uint64, write bool) uint64    { return 0 }
