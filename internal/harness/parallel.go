package harness

import (
	"fmt"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/metrics"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The parallel sharded runner fans benchmark *invocations* — the
// independent repetition unit of the paper's experiment design — out across
// a pool of worker shards. Correctness rests on two invariants:
//
//  1. Every invocation's measurement stream is a pure function of
//     (experiment seed, invocation index): each invocation gets a fresh VM
//     and a noise source derived from the seed and its index alone. The
//     shard id deliberately never enters the sample-affecting stream —
//     if it did, a 4-worker run would draw different samples than a
//     sequential run and the statistics would silently change meaning.
//  2. A merge step reassembles per-invocation results in canonical index
//     order before the statistics layer sees them, so a parallel run is
//     bit-identical in its sample set to the sequential run, merely
//     computed out of order.
//
// What parallelism *can* corrupt is the host: shards contending for cores
// inflate timer overhead and scheduling jitter. The interference guard
// measures exactly that — concurrent per-shard timer-calibration probes —
// and records the dispersion with the result so a contended run carries its
// own warning label (and, under PolicyFallback, reverts to sequential).

// ParallelPolicy selects how the runner reacts to the interference guard.
type ParallelPolicy string

// Guard policies.
const (
	// PolicyGuard (default) probes each shard, records the dispersion, and
	// flags contention in the result; execution stays parallel.
	PolicyGuard ParallelPolicy = "guard"
	// PolicyFallback probes each shard and falls back to sequential
	// execution when the dispersion exceeds the threshold.
	PolicyFallback ParallelPolicy = "fallback"
	// PolicyForce skips the guard probes entirely and always runs parallel.
	PolicyForce ParallelPolicy = "force"
)

// ParseParallelPolicy validates a CLI policy name.
func ParseParallelPolicy(s string) (ParallelPolicy, error) {
	switch ParallelPolicy(s) {
	case "", PolicyGuard:
		return PolicyGuard, nil
	case PolicyFallback:
		return PolicyFallback, nil
	case PolicyForce:
		return PolicyForce, nil
	}
	return "", fmt.Errorf("unknown parallel policy %q (want guard, fallback, or force)", s)
}

// DefaultGuardThreshold is the relative overhead dispersion above which
// cross-shard timer contention is flagged: (max-min)/median of the
// per-shard mean timer overheads measured concurrently.
const DefaultGuardThreshold = 1.0

// ParallelOptions configures the sharded runner.
type ParallelOptions struct {
	// Workers is the shard count; 0 or 1 selects sequential execution.
	Workers int
	// Policy selects the interference-guard reaction (default PolicyGuard).
	Policy ParallelPolicy
	// GuardThreshold overrides DefaultGuardThreshold (0 = default).
	GuardThreshold float64
}

func (po ParallelOptions) withDefaults() ParallelOptions {
	if po.Workers < 1 {
		po.Workers = 1
	}
	if po.Policy == "" {
		po.Policy = PolicyGuard
	}
	if po.GuardThreshold <= 0 {
		po.GuardThreshold = DefaultGuardThreshold
	}
	return po
}

// ShardProbe is one shard's concurrent timer-calibration measurement.
type ShardProbe struct {
	Shard        int
	ResolutionNs float64
	OverheadNs   float64
}

// Parallelism is the sharded-execution record attached to a Result under
// the "parallelism" JSON key.
type Parallelism struct {
	// Workers is the shard count the run was asked for.
	Workers int
	// Policy is the guard policy the run used.
	Policy ParallelPolicy
	// GuardThreshold is the dispersion level that flags contention.
	GuardThreshold float64
	// Probes are the per-shard calibration measurements (absent under
	// PolicyForce). They are host measurements, not simulation output, so
	// archived values differ between machines — by design: they are the
	// run's evidence about its own execution environment.
	Probes []ShardProbe `json:",omitempty"`
	// OverheadDispersion is (max-min)/median over the per-shard mean timer
	// overheads, the guard's contention statistic.
	OverheadDispersion float64
	// Contended reports OverheadDispersion > GuardThreshold.
	Contended bool
	// FellBack reports that the run executed sequentially after all.
	FellBack bool `json:",omitempty"`
	// Reason names why the run fell back ("" when it did not).
	Reason string `json:",omitempty"`
}

// Footnote renders the one-line report annotation for a contended or
// fallen-back run ("" when the record warrants no warning).
func (p *Parallelism) Footnote() string {
	if p == nil {
		return ""
	}
	switch {
	case p.FellBack:
		return fmt.Sprintf("parallelism: fell back to sequential (%s; dispersion %.2f, threshold %.2f)",
			p.Reason, p.OverheadDispersion, p.GuardThreshold)
	case p.Contended:
		return fmt.Sprintf("parallelism: %d workers; cross-shard timer contention detected (overhead dispersion %.2f > threshold %.2f) — between-invocation variance may be inflated",
			p.Workers, p.OverheadDispersion, p.GuardThreshold)
	}
	return ""
}

// probeShardsFn is swappable so tests can inject deterministic probe
// outcomes (the real probe measures the host clock under contention).
var probeShardsFn = probeShards

// probeShards runs one timer calibration per shard, all concurrently, so
// the measurements see exactly the cross-shard contention the benchmark
// invocations will see. A release barrier lines the shards up first.
func probeShards(workers int) []ShardProbe {
	probes := make([]ShardProbe, workers)
	start := make(chan struct{})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			<-start
			cal := metrics.CalibrateTimerQuick(256, 1024)
			probes[shard] = ShardProbe{
				Shard:        shard,
				ResolutionNs: cal.ResolutionNs,
				OverheadNs:   cal.OverheadNs,
			}
		}(w)
	}
	close(start)
	wg.Wait()
	return probes
}

// probeDispersion computes the guard statistic: the relative spread
// (max-min)/median of the per-shard mean timer overheads.
func probeDispersion(probes []ShardProbe) float64 {
	if len(probes) < 2 {
		return 0
	}
	xs := make([]float64, len(probes))
	for i, p := range probes {
		xs[i] = p.OverheadNs
	}
	sort.Float64s(xs)
	med := xs[len(xs)/2]
	if len(xs)%2 == 0 {
		med = (xs[len(xs)/2-1] + xs[len(xs)/2]) / 2
	}
	if med <= 0 {
		return 0
	}
	return (xs[len(xs)-1] - xs[0]) / med
}

// runGuard executes the interference guard for a prospective parallel run
// and returns its record plus whether execution should fall back to
// sequential mode.
func (r *Runner) runGuard(po ParallelOptions) (*Parallelism, bool) {
	par := &Parallelism{
		Workers:        po.Workers,
		Policy:         po.Policy,
		GuardThreshold: po.GuardThreshold,
	}
	if r.obs.Profile != nil {
		// The VM profiler aggregates one per-op stream; feeding it from
		// concurrent engines would interleave unrelated stacks.
		par.FellBack = true
		par.Reason = "profiler attached (per-op attribution requires a single stream)"
		return par, true
	}
	if po.Policy == PolicyForce {
		return par, false
	}
	par.Probes = probeShardsFn(po.Workers)
	par.OverheadDispersion = probeDispersion(par.Probes)
	par.Contended = par.OverheadDispersion > po.GuardThreshold
	if par.Contended {
		r.obs.Trace.Instant(trace.CatSupervisor, "interference-guard",
			"dispersion", fmt.Sprintf("%.3f", par.OverheadDispersion),
			"threshold", fmt.Sprintf("%.3f", po.GuardThreshold))
		r.obs.Metrics.Counter(mGuardTrips, "interference-guard contention detections").Inc()
		if po.Policy == PolicyFallback {
			par.FellBack = true
			par.Reason = "cross-shard timer contention"
			return par, true
		}
	}
	return par, false
}

// shardPool fans jobs 0..n-1 out across w worker goroutines and reports
// per-run utilization telemetry. run executes one job on one shard; the
// pool guarantees each index is executed exactly once and that outs can be
// indexed without synchronization (each index is written by one worker).
func (r *Runner) shardPool(n, w int, run func(shard, idx int)) {
	r.obs.Metrics.Gauge(mWorkers, "worker shards of the last parallel run").Set(float64(w))
	queueDepth := r.obs.Metrics.Gauge(mQueueDepth, "pending invocations in the shard queue")
	var busyNs atomic.Int64
	jobs := make(chan int)
	var wg sync.WaitGroup
	poolStart := time.Now() //benchlint:allow clock
	for s := 0; s < w; s++ {
		wg.Add(1)
		go func(shard int) {
			defer wg.Done()
			wspan := r.obs.Trace.Begin(trace.CatWorker, fmt.Sprintf("worker %d", shard),
				"shard", strconv.Itoa(shard))
			defer wspan.End()
			for idx := range jobs {
				t0 := time.Now() //benchlint:allow clock
				run(shard, idx)
				busyNs.Add(time.Since(t0).Nanoseconds()) //benchlint:allow clock
			}
		}(s)
	}
	for i := 0; i < n; i++ {
		jobs <- i
		queueDepth.Set(float64(n - 1 - i))
	}
	close(jobs)
	wg.Wait()
	if wall := time.Since(poolStart).Seconds(); wall > 0 { //benchlint:allow clock
		util := float64(busyNs.Load()) / 1e9 / (wall * float64(w))
		r.obs.Metrics.Gauge(mWorkerUtilization,
			"mean busy fraction across worker shards of the last parallel run").Set(util)
	}
}

// RunPairParallel is RunPair with each arm executed by the sharded runner;
// ParallelOptions{} (or Workers 1) reproduces RunPair exactly.
func (r *Runner) RunPairParallel(b workloads.Benchmark, opts Options, po ParallelOptions) (interp, jit *Result, err error) {
	oi := opts
	oi.Mode = vm.ModeInterp
	interp, err = r.RunParallel(b, oi, po)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: %s [%s arm]: %w", b.Name, oi.Mode, err)
	}
	oj := opts
	oj.Mode = vm.ModeJIT
	jit, err = r.RunParallel(b, oj, po)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: %s [%s arm]: %w", b.Name, oj.Mode, err)
	}
	if err := pairChecksumError(b.Name, interp, jit); err != nil {
		return nil, nil, err
	}
	return interp, jit, nil
}

// RunParallel executes the full experiment for one benchmark across
// po.Workers shards. The returned result's sample set is bit-identical to
// Run with the same options — invocations are merely computed concurrently
// and merged back into canonical invocation order.
func (r *Runner) RunParallel(b workloads.Benchmark, opts Options, po ParallelOptions) (*Result, error) {
	opts = opts.withDefaults()
	po = po.withDefaults()
	if po.Workers == 1 {
		return r.Run(b, opts)
	}
	par, sequential := r.runGuard(po)
	if sequential {
		res, err := r.Run(b, opts)
		if res != nil {
			res.Parallelism = par
		}
		return res, err
	}
	prog, summary, err := r.compiled(b, opts.Opt)
	if err != nil {
		return nil, err
	}
	opts = tightenBudget(opts, summary)
	sp := r.obs.Trace.Begin(trace.CatBenchmark, b.Name+"/"+opts.Mode.String(),
		"benchmark", b.Name, "mode", opts.Mode.String(),
		"workers", strconv.Itoa(po.Workers))
	defer sp.End()
	r.obs.Metrics.Counter(mParallelRuns, "experiments executed by the sharded runner").Inc()

	type outcome struct {
		inv *Invocation
		err error
	}
	outs := make([]outcome, opts.Invocations)
	r.shardPool(opts.Invocations, po.Workers, func(shard, i int) {
		inv, err := r.runInvocation(prog, opts, i, "worker", strconv.Itoa(shard))
		if err == nil {
			err = validateChecksum(b, inv)
		}
		outs[i] = outcome{inv: inv, err: err}
	})

	// Merge in canonical order; the lowest failing index wins so the error
	// is the one the sequential run would have reported.
	res := &Result{Benchmark: b.Name, Mode: opts.Mode, Opts: opts,
		Analysis: summary, Parallelism: par}
	for i, o := range outs {
		if o.err != nil {
			return nil, fmt.Errorf("harness: %s invocation %d: %w", b.Name, i, o.err)
		}
		res.Invocations = append(res.Invocations, *o.inv)
	}
	r.snapshotMetrics(res)
	return res, nil
}
