package harness

import (
	"fmt"

	"repro/internal/stats"
	"repro/internal/workloads"
)

// AdaptiveOptions configures the sequential ("reasonable time") experiment
// design: run a pilot, then keep adding invocations until the grand-mean
// confidence interval is tight enough or the budget runs out. This is the
// Kalibera–Jones answer to "how long should I benchmark?" turned into an
// online procedure.
type AdaptiveOptions struct {
	// Base carries engine/noise/seed settings. Invocations is the pilot
	// size (default 5); Iterations per invocation are fixed (default from
	// Base or 30).
	Base Options
	// TargetRelHalfWidth is the stopping criterion: CI half-width as a
	// fraction of the mean (e.g. 0.01 for ±1%). Required.
	TargetRelHalfWidth float64
	// Confidence for the interval. Default 0.95.
	Confidence float64
	// MaxInvocations caps the experiment. Default 100.
	MaxInvocations int
	// BatchSize is how many invocations are added per round. Default 5.
	BatchSize int
}

// AdaptiveResult is the outcome of an adaptive run.
type AdaptiveResult struct {
	Result *Result
	// CI is the final grand-mean interval (over invocation means).
	CI stats.Interval
	// Converged reports whether the target was met within the budget.
	Converged bool
	// Rounds is the number of extension rounds after the pilot.
	Rounds int
}

// RunAdaptive executes the sequential design for one benchmark.
func (r *Runner) RunAdaptive(b workloads.Benchmark, opts AdaptiveOptions) (*AdaptiveResult, error) {
	if opts.TargetRelHalfWidth <= 0 {
		return nil, fmt.Errorf("harness: adaptive run needs a positive target half-width")
	}
	conf := opts.Confidence
	if conf == 0 {
		conf = 0.95
	}
	maxInv := opts.MaxInvocations
	if maxInv == 0 {
		maxInv = 100
	}
	batch := opts.BatchSize
	if batch <= 0 {
		batch = 5
	}
	base := opts.Base.withDefaults()
	pilot := opts.Base.Invocations
	if pilot <= 0 {
		pilot = 5
	}
	if pilot > maxInv {
		pilot = maxInv
	}

	prog, summary, err := r.compiled(b, base.Opt)
	if err != nil {
		return nil, err
	}
	res := &Result{Benchmark: b.Name, Mode: base.Mode, Opts: base, Analysis: summary}
	addInvocations := func(n int) error {
		for i := 0; i < n; i++ {
			inv, err := r.runInvocation(prog, base, len(res.Invocations))
			if err == nil {
				err = validateChecksum(b, inv)
			}
			if err != nil {
				return err
			}
			res.Invocations = append(res.Invocations, *inv)
		}
		return nil
	}
	if err := addInvocations(pilot); err != nil {
		return nil, err
	}

	out := &AdaptiveResult{Result: res}
	for {
		ci := stats.KaliberaMeanCI(res.Hierarchical(), conf)
		out.CI = ci
		if rel := ci.RelHalfWidth(); rel <= opts.TargetRelHalfWidth {
			out.Converged = true
			return out, nil
		}
		if len(res.Invocations) >= maxInv {
			return out, nil
		}
		n := batch
		if len(res.Invocations)+n > maxInv {
			n = maxInv - len(res.Invocations)
		}
		if err := addInvocations(n); err != nil {
			return nil, err
		}
		out.Rounds++
	}
}
