package core

import (
	"fmt"
	"math"

	"repro/internal/harness"
	"repro/internal/methodology"
	"repro/internal/noise"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// AblationDispatch — A1: sensitivity of interpreter cost to the per-op
// dispatch overhead (the knob the switch-vs-threaded-dispatch debate turns
// on). Reports geomean cycles relative to the default overhead.
func (e *Engine) AblationDispatch() (*report.Table, error) {
	t := report.NewTable("Ablation A1: dispatch-overhead sensitivity (interpreter)",
		"dispatch instrs/op", "geomean rel. cycles", "geomean rel. to zero")
	overheads := []uint32{0, 4, 9, 16, 24}
	defaultOv := vm.DefaultCostParams().DispatchOverhead
	perOverhead := map[uint32][]float64{}
	for _, b := range e.cfg.Benchmarks {
		for _, ov := range overheads {
			cost := vm.DefaultCostParams()
			cost.DispatchOverhead = ov
			res, err := e.runner.Run(b, harness.Options{
				Mode:        vm.ModeInterp,
				Invocations: 1,
				Iterations:  2,
				Noise:       noise.None(),
				Cost:        cost,
			})
			if err != nil {
				return nil, err
			}
			cyc := res.Invocations[0].Cycles
			perOverhead[ov] = append(perOverhead[ov], float64(cyc[len(cyc)-1]))
		}
	}
	baseline := stats.GeoMean(perOverhead[defaultOv])
	zero := stats.GeoMean(perOverhead[0])
	for _, ov := range overheads {
		g := stats.GeoMean(perOverhead[ov])
		t.AddRow(ov, g/baseline, g/zero)
	}
	t.Caption = fmt.Sprintf("Noise-free steady iteration cycles over the suite; default overhead is %d instrs/op.", defaultOv)
	return t, nil
}

// AblationJITThreshold — A2: JIT hot-loop threshold sweep: total cycles for
// a fixed iteration budget (warmup included), geomean over the suite,
// relative to the default threshold.
func (e *Engine) AblationJITThreshold() (*report.Table, error) {
	t := report.NewTable("Ablation A2: JIT hot-loop threshold sensitivity",
		"threshold", "geomean rel. total cycles", "geomean traces")
	thresholds := []int{2, 8, 16, 64, 256, 1024}
	def := vm.DefaultCostParams().JITThreshold
	totals := map[int][]float64{}
	traces := map[int][]float64{}
	for _, b := range e.cfg.Benchmarks {
		for _, th := range thresholds {
			cost := vm.DefaultCostParams()
			cost.JITThreshold = th
			res, err := e.runner.Run(b, harness.Options{
				Mode:        vm.ModeJIT,
				Invocations: 1,
				Iterations:  e.cfg.Iterations,
				Noise:       noise.None(),
				Cost:        cost,
			})
			if err != nil {
				return nil, err
			}
			total := 0.0
			for _, c := range res.Invocations[0].Cycles {
				total += float64(c)
			}
			totals[th] = append(totals[th], total)
			traces[th] = append(traces[th], float64(res.Invocations[0].JITTraces)+1)
		}
	}
	baseline := stats.GeoMean(totals[def])
	for _, th := range thresholds {
		t.AddRow(th, stats.GeoMean(totals[th])/baseline, stats.GeoMean(traces[th])-0)
	}
	t.Caption = fmt.Sprintf("Total cycles for %d iterations including compile pauses; default threshold %d.",
		e.cfg.Iterations, def)
	return t, nil
}

// AblationCIMethod — A3: empirical coverage of three CI constructions on
// synthetic two-level data with known true mean: flattened t-interval
// (wrong), invocation-means t-interval (Kalibera–Jones), and hierarchical
// awareness via invocation means bootstrap.
func (e *Engine) AblationCIMethod() (*report.Table, error) {
	t := report.NewTable("Ablation A3: CI construction coverage (nominal 95%)",
		"method", "coverage%", "mean rel half-width%")
	const trueMean = 1.0
	trials := e.cfg.Trials
	if trials > 300 {
		trials = 300
	}
	rng := stats.NewRNG(e.cfg.Seed ^ 0xC1C1)
	type method struct {
		name string
		ci   func(stats.HierarchicalSample, *stats.RNG) stats.Interval
	}
	methods := []method{
		{"flattened-t (naive)", func(h stats.HierarchicalSample, _ *stats.RNG) stats.Interval {
			return stats.NaiveFlattenedCI(h, 0.95)
		}},
		{"invocation-means t (KJ)", func(h stats.HierarchicalSample, _ *stats.RNG) stats.Interval {
			return stats.KaliberaMeanCI(h, 0.95)
		}},
		{"invocation-means bootstrap", func(h stats.HierarchicalSample, r *stats.RNG) stats.Interval {
			return stats.BootstrapMeanCI(h.InvocationMeans(), 0.95, 400, r)
		}},
	}
	covered := make([]int, len(methods))
	hwSum := make([]float64, len(methods))
	p := e.cfg.Noise
	for tr := 0; tr < trials; tr++ {
		// Two-level synthetic data around trueMean with the configured
		// noise structure.
		times := make([][]float64, e.cfg.Invocations)
		for i := range times {
			src := noise.NewSource(p, rng.Uint64(), i)
			row := make([]float64, e.cfg.Iterations)
			for j := range row {
				row[j] = src.Apply(trueMean)
			}
			times[i] = row
		}
		h := stats.HierarchicalSample{Times: times}
		// The achievable target is the mean of the noise distribution, not
		// exactly 1.0 (lognormal has mean exp(sigma^2/2), spikes add mass);
		// estimate it once from a large reference sample.
		for mi, m := range methods {
			ci := m.ci(h, rng)
			if ci.Contains(noiseMean(p, trueMean)) {
				covered[mi]++
			}
			hwSum[mi] += ci.RelHalfWidth()
		}
	}
	for mi, m := range methods {
		t.AddRow(m.name,
			100*float64(covered[mi])/float64(trials),
			100*hwSum[mi]/float64(trials))
	}
	t.Caption = fmt.Sprintf("%d synthetic experiments (%d×%d) under the default noise model; flattened intervals undercover because iterations within an invocation are correlated.",
		trials, e.cfg.Invocations, e.cfg.Iterations)
	return t, nil
}

// noiseMean computes the true expected measured time for base time b under
// the noise model (lognormal means plus expected spike mass).
func noiseMean(p noise.Params, b float64) float64 {
	m := b
	m *= lognormalMean(p.InvocationSigma)
	m *= lognormalMean(p.IterationSigma)
	m += b * p.SpikeProb * p.SpikeScale
	return m
}

func lognormalMean(sigma float64) float64 {
	if sigma == 0 {
		return 1
	}
	return expHalfSq(sigma)
}

func expHalfSq(s float64) float64 {
	return mathExp(s * s / 2)
}

// AblationChangepoint — A4: steady-state detection accuracy versus the PELT
// penalty multiplier on synthetic warmup series with a known changepoint.
func (e *Engine) AblationChangepoint() (*report.Table, error) {
	t := report.NewTable("Ablation A4: changepoint penalty sensitivity",
		"penalty multiplier", "detect%", "mean |loc err| iters", "false-pos on flat%")
	multipliers := []float64{0.5, 1, 2, 3, 6, 12}
	trials := e.cfg.Trials
	if trials > 200 {
		trials = 200
	}
	n := e.cfg.WarmupIterations
	trueCP := n / 4
	rng := stats.NewRNG(e.cfg.Seed ^ 0xCCCC)
	for _, mult := range multipliers {
		detected, fp := 0, 0
		locErr := 0.0
		for tr := 0; tr < trials; tr++ {
			warm := syntheticWarmup(n, trueCP, 1.6, 0.01, rng)
			sigma2 := 0.01 * 0.01
			pen := mult * 3 * logf(n) * sigma2
			cps := stats.PELT(warm, pen)
			if len(cps) > 0 {
				detected++
				best := cps[0]
				for _, c := range cps {
					if absInt(c-trueCP) < absInt(best-trueCP) {
						best = c
					}
				}
				locErr += float64(absInt(best - trueCP))
			}
			flat := syntheticWarmup(n, 0, 1.0, 0.01, rng)
			if len(stats.PELT(flat, pen)) > 0 {
				fp++
			}
		}
		meanErr := 0.0
		if detected > 0 {
			meanErr = locErr / float64(detected)
		}
		t.AddRow(mult,
			100*float64(detected)/float64(trials),
			meanErr,
			100*float64(fp)/float64(trials))
	}
	t.Caption = fmt.Sprintf("Synthetic series: %d iterations, step at %d, 1.6x warmup level, 1%% noise; default multiplier is 1 (penalty 3·ln(n)·σ²).",
		n, trueCP)
	return t, nil
}

// syntheticWarmup builds a step series: `level`× slower before cp, 1.0
// after, with multiplicative Gaussian noise sigma.
func syntheticWarmup(n, cp int, level, sigma float64, rng *stats.RNG) []float64 {
	out := make([]float64, n)
	for i := range out {
		base := 1.0
		if i < cp {
			base = level
		}
		out[i] = base * (1 + sigma*rng.NormFloat64())
	}
	return out
}

func absInt(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

func mathExp(x float64) float64 { return math.Exp(x) }
func logf(n int) float64        { return math.Log(float64(n)) }

// AblationNoiseModel — A5: how the simulated machine's noise level changes
// the experiment cost needed for a ±1% grand-mean CI, using the adaptive
// sequential design. This is the "tune your machine or pay in invocations"
// trade-off quantified.
func (e *Engine) AblationNoiseModel() (*report.Table, error) {
	t := report.NewTable("Ablation A5: noise-model sensitivity (adaptive design, target ±1%)",
		"machine", "median invocations", "converged%", "median CI ±%")
	models := []struct {
		name string
		p    noise.Params
	}{
		{"quiet (tuned lab)", noise.Quiet()},
		{"default (desktop)", noise.Default()},
		{"noisy (shared CI)", noise.Noisy()},
	}
	bench := e.cfg.Benchmarks
	if len(bench) > 4 {
		bench = bench[:4]
	}
	for _, m := range models {
		var invocations, widths []float64
		converged := 0
		total := 0
		for _, b := range bench {
			base := harness.Options{
				Mode:        vm.ModeInterp,
				Invocations: 5,
				Iterations:  e.cfg.Iterations,
				Seed:        e.cfg.Seed ^ benchSeed(b.Name, vm.ModeInterp),
				Noise:       m.p,
			}
			res, err := e.runner.RunAdaptive(b, harness.AdaptiveOptions{
				Base:               base,
				TargetRelHalfWidth: 0.01,
				MaxInvocations:     60,
				BatchSize:          5,
			})
			if err != nil {
				return nil, err
			}
			invocations = append(invocations, float64(len(res.Result.Invocations)))
			widths = append(widths, 100*res.CI.RelHalfWidth())
			if res.Converged {
				converged++
			}
			total++
		}
		t.AddRow(m.name, stats.Median(invocations),
			pct(float64(converged)/float64(total)), stats.Median(widths))
	}
	t.Caption = "Adaptive sequential design (pilot 5, batches of 5, cap 60) on the first four suite benchmarks."
	return t, nil
}

// AblationInlineCache — A6: effect of a specializing interpreter (CPython
// 3.11-style inline caching) per benchmark, with the tracing JIT as the
// upper reference. Reports steady-iteration cycles relative to the plain
// interpreter.
func (e *Engine) AblationInlineCache() (*report.Table, error) {
	t := report.NewTable("Ablation A6: specializing interpreter (inline caching)",
		"benchmark", "class", "interp+IC rel. cycles", "jit rel. cycles")
	steady := func(b workloads.Benchmark, mode vm.Mode, ic bool) (float64, error) {
		cost := vm.DefaultCostParams()
		cost.InlineCache = ic
		res, err := e.runner.Run(b, harness.Options{
			Mode:        mode,
			Invocations: 1,
			Iterations:  6,
			Noise:       noise.None(),
			Cost:        cost,
		})
		if err != nil {
			return 0, err
		}
		cyc := res.Invocations[0].Cycles
		return float64(cyc[len(cyc)-1]), nil
	}
	var icRels, jitRels []float64
	for _, b := range e.cfg.Benchmarks {
		base, err := steady(b, vm.ModeInterp, false)
		if err != nil {
			return nil, err
		}
		ic, err := steady(b, vm.ModeInterp, true)
		if err != nil {
			return nil, err
		}
		jit, err := steady(b, vm.ModeJIT, false)
		if err != nil {
			return nil, err
		}
		icRel, jitRel := ic/base, jit/base
		icRels = append(icRels, icRel)
		jitRels = append(jitRels, jitRel)
		t.AddRow(b.Name, string(b.Class), icRel, jitRel)
	}
	t.AddRow("GEOMEAN", "", stats.GeoMean(icRels), stats.GeoMean(jitRels))
	t.Caption = "Steady-iteration cycles relative to the plain interpreter; IC specializes name/attr/arith/call sites after 2 executions."
	return t, nil
}

// AblationSuperinstructions — A7: effect of the opt-in bytecode optimizer
// (constant folding, dead-store elimination, jump threading, and
// superinstruction fusion: -opt 2) on the interpreter. Unlike the steady-
// iteration ablations above, both arms run the full rigorous design — the
// configured invocations × iterations under the configured noise model —
// and are compared with Kalibera–Jones confidence intervals, because the
// optimizer's effect is of the same magnitude as run-to-run noise on some
// benchmarks and a point estimate would overclaim. The checksum validation
// inside each Run is the per-benchmark witness that -opt 2 preserves
// program results.
func (e *Engine) AblationSuperinstructions() (*report.Table, error) {
	t := report.NewTable("Ablation A7: bytecode optimizer + superinstructions (-opt 2)",
		"benchmark", "class", "rel. ops", "speedup", "CI low", "CI high", "verdict")
	rig := methodology.Rigorous{Confidence: e.cfg.Confidence, Seed: e.cfg.Seed}
	arm := func(b workloads.Benchmark, opt int) (*harness.Result, error) {
		return e.runner.Run(b, harness.Options{
			Mode:        vm.ModeInterp,
			Invocations: e.cfg.Invocations,
			Iterations:  e.cfg.Iterations,
			// Salt the seed per arm: the arms must not share a noise stream
			// or the comparison would difference out real perturbations.
			Seed:  e.cfg.Seed ^ benchSeed(b.Name, vm.ModeInterp) ^ uint64(opt)<<48,
			Noise: e.cfg.Noise,
			Opt:   opt,
		})
	}
	var opsRels, speedups []float64
	for _, b := range e.cfg.Benchmarks {
		base, err := arm(b, 0)
		if err != nil {
			return nil, err
		}
		opt, err := arm(b, 2)
		if err != nil {
			return nil, err
		}
		// Executed-op reduction is deterministic (simulated counts are
		// noise-free), so the last steady iteration of one invocation is
		// exact; the wall-clock effect needs the full interval machinery.
		sb := base.Invocations[0].Steps
		so := opt.Invocations[0].Steps
		opsRel := float64(so[len(so)-1]) / float64(sb[len(sb)-1])
		cmp := rig.Compare(base.Hierarchical(), opt.Hierarchical())
		opsRels = append(opsRels, opsRel)
		speedups = append(speedups, cmp.Speedup)
		t.AddRow(b.Name, string(b.Class), opsRel,
			cmp.Speedup, cmp.CI.Lo, cmp.CI.Hi, cmp.Verdict.String())
	}
	t.AddRow("GEOMEAN", "", stats.GeoMean(opsRels), stats.GeoMean(speedups), "", "", "")
	t.Caption = fmt.Sprintf(
		"Interpreter, %d invocations × %d iterations per arm; speedup = opt-0 time / opt-2 time with %v%% Kalibera–Jones CIs; rel. ops = executed bytecode ops per steady iteration, opt 2 / opt 0.",
		e.cfg.Invocations, e.cfg.Iterations, 100*e.cfg.Confidence)
	return t, nil
}

// AblationRegisterElision — A9: effect of the register tier's move-elision
// pass (-vm reg-elide) over the default 1:1 register stream. The 1:1
// lowering executes exactly the stack tier's op sequence (that equality is
// what benchgate -equivalence proves), so elision is the first register-
// tier variant that changes the simulated stream: forwarding moves are
// deleted and their dispatches disappear from the step count. Both arms
// run the full rigorous design and are compared with Kalibera–Jones
// intervals, like A7. rel. ops is the deterministic executed-op ratio;
// the checksum validation inside each Run witnesses that elision preserves
// program results even though it is not sample-set-preserving.
func (e *Engine) AblationRegisterElision() (*report.Table, error) {
	t := report.NewTable("Ablation A9: register-tier move elision (-vm reg-elide)",
		"benchmark", "class", "rel. ops", "speedup", "CI low", "CI high", "verdict")
	rig := methodology.Rigorous{Confidence: e.cfg.Confidence, Seed: e.cfg.Seed}
	arm := func(b workloads.Benchmark, vmSpec string, salt uint64) (*harness.Result, error) {
		return e.runner.Run(b, harness.Options{
			Mode:        vm.ModeInterp,
			Invocations: e.cfg.Invocations,
			Iterations:  e.cfg.Iterations,
			Seed:        e.cfg.Seed ^ benchSeed(b.Name, vm.ModeInterp) ^ salt<<48,
			Noise:       e.cfg.Noise,
			VM:          vmSpec,
		})
	}
	var opsRels, speedups []float64
	for _, b := range e.cfg.Benchmarks {
		base, err := arm(b, "reg", 0)
		if err != nil {
			return nil, err
		}
		elided, err := arm(b, "reg-elide", 1)
		if err != nil {
			return nil, err
		}
		sb := base.Invocations[0].Steps
		se := elided.Invocations[0].Steps
		opsRel := float64(se[len(se)-1]) / float64(sb[len(sb)-1])
		cmp := rig.Compare(base.Hierarchical(), elided.Hierarchical())
		opsRels = append(opsRels, opsRel)
		speedups = append(speedups, cmp.Speedup)
		t.AddRow(b.Name, string(b.Class), opsRel,
			cmp.Speedup, cmp.CI.Lo, cmp.CI.Hi, cmp.Verdict.String())
	}
	t.AddRow("GEOMEAN", "", stats.GeoMean(opsRels), stats.GeoMean(speedups), "", "", "")
	t.Caption = fmt.Sprintf(
		"Register tier, %d invocations × %d iterations per arm; speedup = reg time / reg-elide time with %v%% Kalibera–Jones CIs; rel. ops = executed register ops per steady iteration, elided / 1:1. rel. ops < 1 measures deleted forwarding moves.",
		e.cfg.Invocations, e.cfg.Iterations, 100*e.cfg.Confidence)
	return t, nil
}
