package analysis_test

import (
	"fmt"
	"testing"

	"repro/internal/analysis"
	"repro/internal/minipy"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// checkedRun executes module + calls×run() under a SoundnessChecker built
// from a certificate computed over the EXACT code being executed, and
// returns the checker, final run() result, and executed-step count.
func checkedRun(t *testing.T, code *minipy.Code, mode vm.Mode, calls int) (*analysis.SoundnessChecker, minipy.Value, uint64) {
	t.Helper()
	rep, err := analysis.Analyze(code)
	if err != nil {
		t.Fatalf("analyze: %v", err)
	}
	chk := analysis.NewSoundnessChecker(rep.Facts())
	in := vm.New(vm.Config{Mode: mode, Tracer: chk, MaxSteps: 500_000_000})
	chk.Attach(in)
	if _, err := in.RunModule(code); err != nil {
		t.Fatalf("module: %v", err)
	}
	var last minipy.Value
	for i := 0; i < calls; i++ {
		v, err := in.CallGlobal("run")
		if err != nil {
			t.Fatalf("run() call %d: %v", i+1, err)
		}
		last = v
	}
	return chk, last, in.CountersSnapshot().Steps
}

// variant compiles b and applies the optimizer at the given level (level 0
// returns the verified base program unchanged).
func variant(t *testing.T, b workloads.Benchmark, level int) *minipy.Code {
	t.Helper()
	base, err := b.Compile()
	if err != nil {
		t.Fatalf("compile: %v", err)
	}
	if level == 0 {
		return base
	}
	opt, err := minipy.Optimize(base, level, analysis.OptimizationFacts(base))
	if err != nil {
		t.Fatalf("optimize -opt %d: %v", level, err)
	}
	return opt
}

// TestCertificateSoundOnSuite is the central soundness property of the
// interprocedural analysis: across the whole canonical suite, at every
// optimization level, on both engines, the VM must never observe a value
// outside a claimed interval, a write outside a certified effect summary,
// or a non-fresh-certified call returning a fresh object. The certificate
// is recomputed per variant, so the claims being checked are about the
// exact (possibly superinstruction-fused) bytecode that executes. Checksums
// are verified at every level. The level past minipy.MaxOptLevel must be
// refused by the optimizer, never clamped to a level it does accept.
func TestCertificateSoundOnSuite(t *testing.T) {
	for _, b := range workloads.Suite() {
		for _, level := range []int{0, 2, minipy.MaxOptLevel + 1} {
			for _, mode := range []vm.Mode{vm.ModeInterp, vm.ModeJIT} {
				b, level, mode := b, level, mode
				t.Run(fmt.Sprintf("%s/opt%d/%v", b.Name, level, mode), func(t *testing.T) {
					t.Parallel()
					if level > minipy.MaxOptLevel {
						base, err := b.Compile()
						if err != nil {
							t.Fatalf("compile: %v", err)
						}
						if _, err := minipy.Optimize(base, level, analysis.OptimizationFacts(base)); err == nil {
							t.Fatalf("Optimize accepted out-of-range level %d", level)
						}
						return
					}
					code := variant(t, b, level)
					chk, last, steps := checkedRun(t, code, mode, 2)
					for _, v := range chk.Violations() {
						t.Errorf("soundness violation: %s", v)
					}
					if b.Checksum != "" && last.Repr() != b.Checksum {
						t.Errorf("checksum: got %s want %s", last.Repr(), b.Checksum)
					}
					rep, err := analysis.Analyze(code)
					if err != nil {
						t.Fatalf("analyze: %v", err)
					}
					sb := rep.Certificate.StepBound
					if sb.Bounded {
						bound := uint64(sb.ModuleSteps) + 2*uint64(sb.RunSteps)
						if steps > bound {
							t.Errorf("static step bound too tight: executed %d > certified %d",
								steps, bound)
						}
					}
				})
			}
		}
	}
}

// TestCertificateSoundOnSynthetics extends the property over generated
// workloads at multiple seeds, exercising program shapes the hand-written
// suite does not (parameterized loop trip counts, dict/str mixes, branch
// entropy) on the interpreter at the highest optimization level.
func TestCertificateSoundOnSynthetics(t *testing.T) {
	for _, seed := range []uint64{42, 43} {
		for i, cfg := range []workloads.SyntheticConfig{
			{LoopIters: 50, Seed: seed},
			{LoopIters: 50, CallEveryN: 3, Seed: seed},
			{LoopIters: 50, DictOps: true, StrOps: true, BranchEntropy: 0.5, Seed: seed},
		} {
			b := workloads.Synthetic(cfg)
			t.Run(fmt.Sprintf("seed%d/cfg%d", seed, i), func(t *testing.T) {
				t.Parallel()
				code := variant(t, b, minipy.MaxOptLevel)
				chk, _, _ := checkedRun(t, code, vm.ModeInterp, 2)
				for _, v := range chk.Violations() {
					t.Errorf("soundness violation: %s", v)
				}
			})
		}
	}
}

// TestStepBoundCoverage pins which canonical workloads earn a static step
// bound: range-driven loop kernels must be bounded; recursive and
// while-loop workloads must be refused with a reason. Both directions
// matter — a regression that silently stops proving bounds and one that
// starts "proving" bounds for unbounded programs are equally wrong.
func TestStepBoundCoverage(t *testing.T) {
	wantBounded := map[string]bool{
		"matmul": true, "branchy": true,
		"fib": false, "collatz": false, "richards": false, "mandelbrot": false,
	}
	for name, want := range wantBounded {
		b, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("workload %s missing", name)
		}
		code, err := b.Compile()
		if err != nil {
			t.Fatalf("compile: %v", err)
		}
		rep, err := analysis.Analyze(code)
		if err != nil {
			t.Fatalf("analyze: %v", err)
		}
		sb := rep.Certificate.StepBound
		if sb.Bounded != want {
			t.Errorf("%s: Bounded=%v want %v (reason %q)", name, sb.Bounded, want, sb.Reason)
		}
		if !want && sb.Reason == "" {
			t.Errorf("%s: unbounded certificate must state a reason", name)
		}
	}
}
