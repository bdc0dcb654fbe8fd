// Package harness runs benchmarking experiments with the paper's rigorous
// design: multiple fresh VM invocations, multiple measured iterations per
// invocation, deterministic seeded noise, and optional hardware-counter
// simulation. The output shape (invocation × iteration matrices) is exactly
// what the statistics layer's two-level analyses consume.
package harness

import (
	"fmt"
	"time"

	"repro/internal/analysis"
	"repro/internal/counters"
	"repro/internal/metrics"
	"repro/internal/minipy"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// Options configures one experiment (one benchmark × one engine).
type Options struct {
	Mode        vm.Mode
	Invocations int
	Iterations  int
	// Seed drives the noise model and any downstream bootstrap. The same
	// seed reproduces the experiment exactly.
	Seed uint64
	// Noise selects the simulated machine; zero value means noiseless.
	Noise noise.Params
	// Cost overrides the engine cost model (zero value = defaults).
	Cost vm.CostParams
	// WithCounters attaches the hardware-counter model to each invocation.
	WithCounters bool
	// FreqGHz converts simulated cycles to seconds. Defaults to 3.0.
	FreqGHz float64
	// MaxStepsPerInvocation bounds runaway workloads (0 = default 2^32).
	MaxStepsPerInvocation uint64
	// WallBudget bounds one invocation's real elapsed time (0 = none).
	// Unlike the step budget it depends on the host clock, so it exists
	// for supervision (kill a hung invocation), not for measurement.
	WallBudget time.Duration `json:",omitempty"`
	// AbortCheck, when non-nil, is polled by the engine alongside the wall
	// budget; a non-nil return aborts the in-flight invocation. It exists
	// for control-plane cancellation (a daemon killing a running campaign),
	// never for measurement. Being a function it does not serialize:
	// subprocess workers and checkpoint keys ignore it, so cancellation is
	// an in-process facility.
	AbortCheck func() error `json:"-"`
	// Opt is the bytecode-optimization level (see minipy.Optimize). 0 runs
	// the compiler's output unchanged. Levels >= 1 rewrite the simulated
	// opcode stream, so optimized runs are a distinct experiment arm — never
	// comparable sample-for-sample with level 0.
	Opt int `json:",omitempty"`
	// VM selects the register stream: "" or "reg" for the 1:1 lowering
	// (default), or "reg-elide" for the move-elided stream (ablation A9),
	// which executes fewer simulated ops and is therefore a distinct
	// experiment arm. Any other value is rejected (DESIGN.md §16).
	VM string `json:",omitempty"`
}

func (o Options) withDefaults() Options {
	if o.Invocations <= 0 {
		o.Invocations = 10
	}
	if o.Iterations <= 0 {
		o.Iterations = 30
	}
	if o.FreqGHz <= 0 {
		o.FreqGHz = 3.0
	}
	if o.MaxStepsPerInvocation == 0 {
		o.MaxStepsPerInvocation = defaultStepBudget
	}
	return o
}

// defaultStepBudget is the runaway-workload backstop applied when the user
// does not set MaxStepsPerInvocation.
const defaultStepBudget = 1 << 32

// tightenBudget lowers the default step budget to the certificate's static
// worst case when the interprocedural analysis proved one (DESIGN.md §14):
// module import plus Iterations calls of run(), doubled for slack and
// padded so a tiny workload never sits on the edge of its own budget. A
// user-set budget is never overridden, and an unbounded certificate leaves
// the backstop alone. The result is that a workload whose loops the
// analysis can count trips for aborts in thousands of steps — not 2^32 —
// if a regression makes it run long. Call after withDefaults.
func tightenBudget(opts Options, summary *analysis.Summary) Options {
	if opts.MaxStepsPerInvocation != defaultStepBudget ||
		summary == nil || summary.Certificate == nil {
		return opts
	}
	sb := summary.Certificate.StepBound
	if !sb.Bounded || sb.ModuleSteps < 0 || sb.RunSteps < 0 {
		return opts
	}
	iters := uint64(opts.Iterations)
	if sb.RunSteps > 0 && iters > (1<<62)/uint64(sb.RunSteps) {
		return opts // static bound too large to be a useful budget
	}
	bound := 2*(uint64(sb.ModuleSteps)+iters*uint64(sb.RunSteps)) + 4096
	if bound < opts.MaxStepsPerInvocation {
		opts.MaxStepsPerInvocation = bound
	}
	return opts
}

// Invocation is the measurement record of one fresh VM process.
type Invocation struct {
	// TimesSec[j] is the measured (noise-perturbed) wall time of iteration j.
	TimesSec []float64
	// Cycles[j] is the raw simulated cycle count of iteration j.
	Cycles []uint64
	// Steps[j] is the executed bytecode op count of iteration j.
	Steps []uint64
	// Counters is the end-of-invocation hardware-counter snapshot
	// (nil unless Options.WithCounters).
	Counters *counters.Snapshot
	// Mix is the instruction-mix breakdown (zero unless WithCounters).
	Mix counters.InstructionMix
	// JITTraces/JITBridges/GuardFails summarize JIT activity (zero for the
	// interpreter).
	JITTraces  int
	JITBridges int
	GuardFails int
	// Checksum is the repr() of run()'s return value from the last
	// iteration, for cross-engine validation.
	Checksum string
}

// Result is a complete experiment: all invocations of one benchmark under
// one engine.
type Result struct {
	Benchmark   string
	Mode        vm.Mode
	Opts        Options
	Invocations []Invocation
	// Supervision records fault-tolerance accounting (retries, drops,
	// quarantined samples) when the experiment ran under a Supervisor;
	// nil for plain Runner runs.
	Supervision *Supervision `json:",omitempty"`
	// Metrics is the harness self-telemetry snapshot (timer calibration,
	// GC interference, retry/cache activity) taken when the experiment
	// finished; nil unless an Observer with a metrics registry was
	// attached.
	Metrics *metrics.Snapshot `json:"metrics,omitempty"`
	// Analysis is the static-analysis digest of the workload (CFG size,
	// dead code, type-inference coverage, determinism certificate),
	// computed once per benchmark at compile time. It rides with every
	// result so an archived report carries the evidence that its workload
	// was deterministic and well-formed.
	Analysis *analysis.Summary `json:"analysis,omitempty"`
	// Parallelism records the sharded-execution provenance when the
	// experiment ran under the parallel runner: worker count, policy, the
	// per-shard interference-guard probes and their dispersion, and whether
	// the run fell back to sequential mode. Nil for sequential runs, whose
	// sample set the parallel runner reproduces bit-identically.
	Parallelism *Parallelism `json:"parallelism,omitempty"`
}

// Hierarchical converts the measured times into the two-level sample shape
// the statistics layer uses.
func (r *Result) Hierarchical() stats.HierarchicalSample {
	times := make([][]float64, len(r.Invocations))
	for i, inv := range r.Invocations {
		times[i] = inv.TimesSec
	}
	return stats.HierarchicalSample{Times: times}
}

// HierarchicalFrom drops the first skip iterations of every invocation
// (manual warmup exclusion).
func (r *Result) HierarchicalFrom(skip int) stats.HierarchicalSample {
	times := make([][]float64, len(r.Invocations))
	for i, inv := range r.Invocations {
		if skip >= len(inv.TimesSec) {
			times[i] = nil
			continue
		}
		times[i] = inv.TimesSec[skip:]
	}
	return stats.HierarchicalSample{Times: times}
}

// CyclesMatrix returns the noise-free cycle counts per invocation/iteration.
func (r *Result) CyclesMatrix() [][]uint64 {
	out := make([][]uint64, len(r.Invocations))
	for i, inv := range r.Invocations {
		out[i] = inv.Cycles
	}
	return out
}

// Runner executes experiments. Compiled workloads are cached in a
// concurrency-safe workloads.CodeCache, so repeated experiments on the same
// benchmark skip the front end and parallel shards can share one cache
// handle without racing the front end or the inventory listing.
type Runner struct {
	cache *workloads.CodeCache
	// obs holds the optional observability sinks (see observe.go). The
	// zero value is free: disabled sinks cost one nil check each.
	obs Observer
}

// NewRunner returns an empty runner.
func NewRunner() *Runner {
	return &Runner{cache: workloads.NewCodeCache()}
}

// Cache exposes the runner's compiled-code cache (shards and tests share it).
func (r *Runner) Cache() *workloads.CodeCache { return r.cache }

func (r *Runner) compiled(b workloads.Benchmark, opt int) (*vm.Program, *analysis.Summary, error) {
	e, hit, err := r.cache.GetOpt(b, opt)
	if err != nil {
		return nil, nil, err
	}
	if hit {
		r.obs.Metrics.Counter(mCacheHits, "compiled-code cache hits").Inc()
	} else {
		r.obs.Metrics.Counter(mCacheMisses, "compiled-code cache misses (front-end runs)").Inc()
	}
	return e.Program, e.Analysis, nil
}

// Run executes the full experiment for one benchmark.
func (r *Runner) Run(b workloads.Benchmark, opts Options) (*Result, error) {
	opts = opts.withDefaults()
	prog, summary, err := r.compiled(b, opts.Opt)
	if err != nil {
		return nil, err
	}
	opts = tightenBudget(opts, summary)
	sp := r.obs.Trace.Begin(trace.CatBenchmark, b.Name+"/"+opts.Mode.String(),
		"benchmark", b.Name, "mode", opts.Mode.String())
	defer sp.End()
	res := &Result{Benchmark: b.Name, Mode: opts.Mode, Opts: opts, Analysis: summary}
	for i := 0; i < opts.Invocations; i++ {
		inv, err := r.runInvocation(prog, opts, i)
		if err == nil {
			err = validateChecksum(b, inv)
		}
		if err != nil {
			return nil, fmt.Errorf("harness: %s invocation %d: %w", b.Name, i, err)
		}
		res.Invocations = append(res.Invocations, *inv)
	}
	r.snapshotMetrics(res)
	return res, nil
}

// validateChecksum checks an invocation's result checksum against the
// benchmark's declared expectation (skipped when none is declared).
func validateChecksum(b workloads.Benchmark, inv *Invocation) error {
	if b.Checksum != "" && inv.Checksum != b.Checksum {
		return fmt.Errorf("checksum mismatch: got %s, want %s", inv.Checksum, b.Checksum)
	}
	return nil
}

// runInvocation simulates one fresh VM process: module import (setup), then
// opts.Iterations timed calls of run(). Checksum validation against the
// benchmark's expectation is the caller's job (the supervisor corrupts the
// checksum first when injecting that fault). spanKV carries extra span
// arguments — the parallel runner labels every invocation span with the
// worker shard that executed it.
func (r *Runner) runInvocation(prog *vm.Program,
	opts Options, invIdx int, spanKV ...string) (*Invocation, error) {
	tr := r.obs.Trace
	var invSpan trace.Span
	if tr != nil {
		kv := append([]string{"index", fmt.Sprint(invIdx)}, spanKV...)
		invSpan = tr.Begin(trace.CatInvocation, fmt.Sprintf("invocation %d", invIdx), kv...)
	}
	defer invSpan.End() // deferred so panicking attempts still close the span
	gc := metrics.StartGCSample(r.obs.Metrics)
	defer gc.Stop()
	r.obs.Metrics.Counter(mInvocations, "VM invocations started").Inc()

	var probe vm.Probe
	var model *counters.Model
	if opts.WithCounters {
		model = counters.NewModel()
		probe = model
	}
	// A nil *Profiler must stay a nil interface, or the VM would pay the
	// hook on every op for a no-op receiver.
	var vtracer vm.Tracer
	if r.obs.Profile != nil {
		vtracer = r.obs.Profile
	}
	abort := opts.AbortCheck
	if opts.WallBudget > 0 {
		deadline := time.Now().Add(opts.WallBudget) //benchlint:allow clock
		cancel := abort
		abort = func() error {
			if time.Now().After(deadline) { //benchlint:allow clock
				return fmt.Errorf("wall budget %s exceeded", opts.WallBudget)
			}
			if cancel != nil {
				return cancel()
			}
			return nil
		}
	}
	regElide, ok := vm.TierSpec(opts.VM)
	if !ok {
		return nil, fmt.Errorf("unknown vm tier %q (want reg or reg-elide)", opts.VM)
	}
	engine := vm.New(vm.Config{
		Mode:       opts.Mode,
		RegElide:   regElide,
		Cost:       opts.Cost,
		Probe:      probe,
		Tracer:     vtracer,
		MaxSteps:   opts.MaxStepsPerInvocation,
		AbortCheck: abort,
	})
	setupSpan := tr.Begin(trace.CatPhase, "module-setup")
	_, err := engine.RunProgram(prog)
	setupSpan.End()
	if err != nil {
		return nil, fmt.Errorf("module setup: %w", err)
	}
	src := noise.NewSource(opts.Noise, opts.Seed, invIdx)
	inv := &Invocation{
		TimesSec: make([]float64, 0, opts.Iterations),
		Cycles:   make([]uint64, 0, opts.Iterations),
		Steps:    make([]uint64, 0, opts.Iterations),
	}
	hz := opts.FreqGHz * 1e9
	var last minipy.Value
	for j := 0; j < opts.Iterations; j++ {
		// Span bookkeeping (including the name formatting) is gated on a
		// live tracer so the disabled path adds zero allocations per
		// iteration — the overhead contract of DESIGN.md §8.
		var iterSpan, callSpan trace.Span
		if tr != nil {
			iterSpan = tr.Begin(trace.CatIteration, fmt.Sprintf("iteration %d", j))
		}
		before := engine.CountersSnapshot()
		if tr != nil {
			callSpan = tr.Begin(trace.CatPhase, "run()")
		}
		v, err := engine.CallGlobal("run")
		callSpan.End()
		if err != nil {
			iterSpan.End()
			return nil, fmt.Errorf("run() iteration %d: %w", j, err)
		}
		last = v
		delta := engine.CountersSnapshot().Sub(before)
		base := float64(delta.Cycles) / hz
		inv.TimesSec = append(inv.TimesSec, src.Apply(base))
		inv.Cycles = append(inv.Cycles, delta.Cycles)
		inv.Steps = append(inv.Steps, delta.Steps)
		if tr != nil {
			iterSpan.SetArg("cycles", fmt.Sprint(delta.Cycles))
		}
		iterSpan.End()
	}
	r.obs.Metrics.Counter(mIterations, "measured iterations completed").
		Add(uint64(opts.Iterations))
	if last != nil {
		inv.Checksum = last.Repr()
	}
	if model != nil {
		snap := model.Snapshot()
		inv.Counters = &snap
		inv.Mix = model.Mix()
	}
	inv.JITTraces, inv.JITBridges, inv.GuardFails = engine.JITStats()
	return inv, nil
}

// RunPair runs the same benchmark under both engines with the same options
// and validates that the engines produce identical checksums. A failure in
// either arm is wrapped with the benchmark name and engine mode, so a
// multi-benchmark campaign report pinpoints what broke.
func (r *Runner) RunPair(b workloads.Benchmark, opts Options) (interp, jit *Result, err error) {
	oi := opts
	oi.Mode = vm.ModeInterp
	interp, err = r.Run(b, oi)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: %s [%s arm]: %w", b.Name, oi.Mode, err)
	}
	oj := opts
	oj.Mode = vm.ModeJIT
	jit, err = r.Run(b, oj)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: %s [%s arm]: %w", b.Name, oj.Mode, err)
	}
	if err := pairChecksumError(b.Name, interp, jit); err != nil {
		return nil, nil, err
	}
	return interp, jit, nil
}

// pairChecksumError validates cross-engine agreement: both arms of a pair
// must produce the same result checksum, or the comparison is measuring
// two different computations.
func pairChecksumError(bench string, interp, jit *Result) error {
	if len(interp.Invocations) == 0 || len(jit.Invocations) == 0 {
		return fmt.Errorf("harness: %s: cannot validate checksums without invocations", bench)
	}
	ci := interp.Invocations[0].Checksum
	cj := jit.Invocations[0].Checksum
	if ci != cj {
		return fmt.Errorf("harness: engines disagree on %s: interp=%s jit=%s",
			bench, ci, cj)
	}
	return nil
}
