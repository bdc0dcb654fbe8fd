// Command benchgate is the CI perf-regression gate: it compares two result
// files written by `pybench -bench NAME -json` — a committed baseline and a
// fresh candidate — with the repository's own statistics (hierarchical
// bootstrap ratio CI on the candidate/baseline runtime, plus a minimum
// practical effect size) and exits non-zero when the candidate is a
// statistically sound slowdown.
//
// Usage:
//
//	benchgate -baseline base.json -candidate cand.json
//	benchgate -baseline base.json -candidate cand.json -confidence 0.99 -min-effect 0.02
//	benchgate -baseline seq.json -candidate par.json -equivalence
//	benchgate -mem-baseline BENCH_vm.json -mem-candidate fresh.json
//
// -equivalence switches to the parallel-determinism check: instead of a
// statistical comparison, the two results must contain the *identical*
// per-invocation sample set (times, cycles, steps), invocation by
// invocation — the property the sharded and isolated runners guarantee
// against the sequential runner at equal seeds, and host-level VM
// optimizations against the committed golden baseline (DESIGN.md §16).
//
// -mem-baseline/-mem-candidate run the memory gate over two benchjson
// documents (the BENCH_vm.json shape): every benchmark whose
// allocs_per_op or bytes_per_op grew past both the percentage threshold
// (-max-alloc-growth / -max-bytes-growth) and the absolute
// practical-effect floor (-alloc-floor / -bytes-floor) fails the gate.
// allocs/bytes are host-stable, so unlike ns/op this is a hard CI gate —
// it is how the register tier's unboxing win stays locked in. The memory
// gate composes with the result gate: give both pairs and both must pass.
//
// Exit codes follow the repository taxonomy: 0 = pass; 1 = regression (or
// equivalence/memory-gate failure); 2 = usage (bad flags, incomparable
// inputs); 3 = infrastructure (unreadable or undecodable result files).
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"repro/internal/benchfmt"
	"repro/internal/exitcode"
	"repro/internal/harness"
	"repro/internal/perfstore"
	"repro/internal/stats"
	"repro/internal/wal"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is main with injectable streams and an exit code, so tests drive the
// whole CLI in-process.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchgate", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		basePath    = fs.String("baseline", "", "baseline result JSON (from pybench -bench NAME -json)")
		candPath    = fs.String("candidate", "", "candidate result JSON to gate")
		equivalence = fs.Bool("equivalence", false, "require bit-identical per-invocation sample sets instead of a statistical comparison")
		confidence  = fs.Float64("confidence", stats.DefaultGateConfidence, "CI level for the regression decision")
		minEffect   = fs.Float64("min-effect", stats.DefaultGateMinEffect, "minimum relative slowdown treated as a regression (negative = none)")
		resamples   = fs.Int("resamples", 0, "bootstrap resamples (0 = library default)")
		seed        = fs.Uint64("seed", 1, "bootstrap RNG seed (the gate decision is deterministic per seed)")
		histPath    = fs.String("history", "", "benchtrack history (BENCH_history.jsonl): print the longitudinal trend next to the verdict")
		trendLast   = fs.Int("trend-last", 10, "trend window (runs) for the -history summary")

		memBasePath = fs.String("mem-baseline", "", "baseline benchjson document (BENCH_vm.json) for the memory gate")
		memCandPath = fs.String("mem-candidate", "", "candidate benchjson document to memory-gate")
		memDef      = benchfmt.DefaultMemThresholds()
		allocPct    = fs.Float64("max-alloc-growth", memDef.MaxAllocGrowthPct, "allowed allocs_per_op growth in percent (negative = off)")
		bytesPct    = fs.Float64("max-bytes-growth", memDef.MaxBytesGrowthPct, "allowed bytes_per_op growth in percent (negative = off)")
		allocFloor  = fs.Int64("alloc-floor", memDef.AllocFloor, "absolute allocs_per_op growth below which the memory gate never fails")
		bytesFloor  = fs.Int64("bytes-floor", memDef.BytesFloor, "absolute bytes_per_op growth below which the memory gate never fails")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if (*memBasePath == "") != (*memCandPath == "") {
		fmt.Fprintln(stderr, "benchgate: -mem-baseline and -mem-candidate must be given together")
		return 2
	}
	memCode := -1
	if *memBasePath != "" {
		memCode = runMemGate(*memBasePath, *memCandPath, benchfmt.MemThresholds{
			MaxAllocGrowthPct: *allocPct,
			MaxBytesGrowthPct: *bytesPct,
			AllocFloor:        *allocFloor,
			BytesFloor:        *bytesFloor,
		}, stdout, stderr)
		// Memory-only invocation: the result gate is skipped entirely.
		if *basePath == "" && *candPath == "" {
			return memCode
		}
	}
	if *basePath == "" || *candPath == "" {
		fmt.Fprintln(stderr, "benchgate: both -baseline and -candidate are required")
		fs.Usage()
		return 2
	}
	base, err := readResult(*basePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return exitcode.Infra
	}
	cand, err := readResult(*candPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return exitcode.Infra
	}
	if base.Benchmark != cand.Benchmark || base.Mode != cand.Mode {
		fmt.Fprintf(stderr, "benchgate: results are not comparable: baseline is %s/%s, candidate is %s/%s\n",
			base.Benchmark, base.Mode, cand.Benchmark, cand.Mode)
		return 2
	}

	var code int
	if *equivalence {
		code = runEquivalence(base, cand, stdout, stderr)
	} else {
		code = runGate(base, cand, stats.GateThresholds{
			Confidence: *confidence,
			MinEffect:  *minEffect,
			Resamples:  *resamples,
		}, *seed, stdout, stderr)
	}
	// The two-snapshot verdict and the trajectory view cross-reference each
	// other: a PASS here can still sit on a slow multi-run drift, and a
	// FAIL is easier to triage next to the commit-attributed history.
	if *histPath != "" {
		printTrend(*histPath, base.Benchmark, *trendLast, stdout, stderr)
	}
	// Both gates ran: the worse verdict wins the exit code.
	if memCode > code {
		return memCode
	}
	return code
}

// runMemGate applies the allocs/bytes regression gate to two benchjson
// documents (see internal/benchfmt.MemGate for the two-bar policy).
func runMemGate(basePath, candPath string, th benchfmt.MemThresholds, stdout, stderr io.Writer) int {
	base, err := benchfmt.ReadFile(basePath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return exitcode.Infra
	}
	cand, err := benchfmt.ReadFile(candPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate:", err)
		return exitcode.Infra
	}
	violations := benchfmt.MemGate(base, cand, th)
	for _, v := range violations {
		fmt.Fprintf(stderr, "benchgate: FAIL: %v\n", v)
	}
	if len(violations) > 0 {
		return 1
	}
	fmt.Fprintf(stdout, "benchgate: PASS: memory gate over %d benchmark(s) (alloc growth <= %.0f%% or <= %d allocs; bytes growth <= %.0f%% or <= %d B)\n",
		len(cand.Benchmarks), th.MaxAllocGrowthPct, th.AllocFloor, th.MaxBytesGrowthPct, th.BytesFloor)
	return 0
}

// printTrend prints benchtrack's one-line longitudinal summary for the
// gated benchmark. Trend problems never change the gate verdict — the
// trajectory alert lives in `benchtrack report` — so failures here only
// warn.
func printTrend(histPath, benchmark string, lastN int, stdout, stderr io.Writer) {
	store, err := perfstore.Open(wal.OSFS{}, histPath)
	if err != nil {
		fmt.Fprintln(stderr, "benchgate: trend unavailable:", err)
		return
	}
	//benchlint:allow uncheckederr — read-only use of the journal
	defer store.Close()
	line := perfstore.TrendLine(store.Runs(), store.Acked(), benchmark, lastN)
	if line == "" {
		fmt.Fprintf(stdout, "benchgate: no longitudinal history for %s in %s\n", benchmark, histPath)
		return
	}
	fmt.Fprintf(stdout, "benchgate: %s\n", line)
}

func readResult(path string) (*harness.Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	//benchlint:allow uncheckederr — file opened read-only
	defer f.Close()
	res, err := harness.ReadResultJSON(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if len(res.Invocations) == 0 {
		return nil, fmt.Errorf("%s: result has no invocations", path)
	}
	return res, nil
}

// runGate performs the statistical regression decision.
func runGate(base, cand *harness.Result, th stats.GateThresholds, seed uint64,
	stdout, stderr io.Writer) int {
	hb, repB := stats.Sanitize(base.Hierarchical())
	hc, repC := stats.Sanitize(cand.Hierarchical())
	if !repB.Clean() || !repC.Clean() {
		fmt.Fprintf(stdout, "benchgate: sanitized inputs (baseline: %d quarantined/%d dropped; candidate: %d/%d)\n",
			repB.QuarantinedSamples, repB.DroppedInvocations,
			repC.QuarantinedSamples, repC.DroppedInvocations)
	}
	v := stats.PerfGate(hb, hc, th, stats.NewRNG(seed))
	fmt.Fprintf(stdout,
		"benchgate: %s/%s: runtime ratio %.4f (candidate/baseline), %g%% CI [%.4f, %.4f], Cohen's d %.2f, min effect %.1f%%\n",
		base.Benchmark, base.Mode, v.Ratio, 100*v.CI.Confidence, v.CI.Lo, v.CI.Hi,
		v.EffectD, 100*v.MinEffect)
	switch {
	case v.Slowdown:
		fmt.Fprintf(stderr, "benchgate: FAIL: statistically significant slowdown of %.1f%% (CI excludes 1)\n",
			100*(v.Ratio-1))
		return 1
	case v.Speedup:
		fmt.Fprintf(stdout, "benchgate: PASS: statistically significant speedup of %.1f%%\n",
			100*(1-v.Ratio))
	case v.Significant():
		fmt.Fprintln(stdout, "benchgate: PASS: shift is statistically detectable but below the practical-effect floor")
	default:
		fmt.Fprintln(stdout, "benchgate: PASS: no statistically significant change")
	}
	return 0
}

// runEquivalence checks the parallel-determinism contract: identical
// per-invocation measurement vectors in canonical invocation order.
func runEquivalence(base, cand *harness.Result, stdout, stderr io.Writer) int {
	if len(base.Invocations) != len(cand.Invocations) {
		fmt.Fprintf(stderr, "benchgate: FAIL: invocation counts differ: %d vs %d\n",
			len(base.Invocations), len(cand.Invocations))
		return 1
	}
	for i := range base.Invocations {
		bi, ci := base.Invocations[i], cand.Invocations[i]
		if err := equalVectors(bi.TimesSec, ci.TimesSec); err != nil {
			fmt.Fprintf(stderr, "benchgate: FAIL: invocation %d times differ: %v\n", i, err)
			return 1
		}
		if err := equalUints(bi.Cycles, ci.Cycles); err != nil {
			fmt.Fprintf(stderr, "benchgate: FAIL: invocation %d cycles differ: %v\n", i, err)
			return 1
		}
		if err := equalUints(bi.Steps, ci.Steps); err != nil {
			fmt.Fprintf(stderr, "benchgate: FAIL: invocation %d steps differ: %v\n", i, err)
			return 1
		}
		if bi.Checksum != ci.Checksum {
			fmt.Fprintf(stderr, "benchgate: FAIL: invocation %d checksums differ: %s vs %s\n",
				i, bi.Checksum, ci.Checksum)
			return 1
		}
	}
	fmt.Fprintf(stdout, "benchgate: PASS: %d invocations bit-identical (%s/%s)\n",
		len(base.Invocations), base.Benchmark, base.Mode)
	return 0
}

func equalVectors(a, b []float64) error {
	if len(a) != len(b) {
		return fmt.Errorf("lengths %d vs %d", len(a), len(b))
	}
	for j := range a {
		if a[j] != b[j] {
			return fmt.Errorf("iteration %d: %v vs %v", j, a[j], b[j])
		}
	}
	return nil
}

func equalUints(a, b []uint64) error {
	if len(a) != len(b) {
		return fmt.Errorf("lengths %d vs %d", len(a), len(b))
	}
	for j := range a {
		if a[j] != b[j] {
			return fmt.Errorf("iteration %d: %d vs %d", j, a[j], b[j])
		}
	}
	return nil
}
