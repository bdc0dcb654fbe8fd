package main

import (
	"fmt"
	"runtime/metrics"

	"repro/internal/analysis"
	"repro/internal/counters"
	"repro/internal/harness"
	"repro/internal/minipy"
	"repro/internal/noise"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// The traced run repeats a workload's work through the layers' public
// entry points, so the benchmark can time each layer from outside the
// program. replica holds the compiled code it reuses, like the harness's
// code cache, and records a span around every call it makes.
type replica struct {
	tr    *tracer
	codes map[string]*minipy.Code
}

func newReplica(tr *tracer) *replica {
	return &replica{tr: tr, codes: map[string]*minipy.Code{}}
}

// compiled returns b's code, counting a cache hit or a miss as the
// harness's code cache does.
func (x *replica) compiled(b workloads.Benchmark) (*minipy.Code, error) {
	if code, ok := x.codes[b.Name]; ok {
		x.tr.add("harness.cache_hits", 1)
		return code, nil
	}
	x.tr.add("harness.cache_misses", 1)
	return x.frontEnd(b)
}

// frontEnd does what the harness's code cache does on a miss — compile,
// check, analyze — and then the register lowering the VM performs on
// first execution.
func (x *replica) frontEnd(b workloads.Benchmark) (*minipy.Code, error) {
	sp := x.tr.begin("minipy.compile")
	code, err := minipy.CompileSource(b.Source)
	x.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", b.Name, err)
	}
	sp = x.tr.begin("analysis.check")
	err = analysis.Check(code)
	x.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", b.Name, err)
	}
	sp = x.tr.begin("analysis.analyze")
	rep, err := analysis.Analyze(code)
	if err == nil {
		rep.Summarize()
	}
	x.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", b.Name, err)
	}
	sp = x.tr.begin("minipy.lower")
	err = x.lower(code)
	x.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("workload %s: %w", b.Name, err)
	}
	x.codes[b.Name] = code
	return code, nil
}

// lower lowers and verifies code and every nested code object, counting
// stack and register instructions.
func (x *replica) lower(code *minipy.Code) error {
	rc, err := minipy.LowerToRegister(code)
	if err != nil {
		return err
	}
	if err := minipy.VerifyRegister(rc); err != nil {
		return err
	}
	x.tr.add("minipy.ops", float64(len(code.Ops)))
	x.tr.add("minipy.reg_ops", float64(len(rc.Ops)))
	for _, k := range code.Consts {
		if sub, ok := k.(*minipy.Code); ok {
			if err := x.lower(sub); err != nil {
				return err
			}
		}
	}
	return nil
}

// allocSample reads the process's cumulative heap allocation without
// stopping the world.
var allocSample = []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}

func heapAllocs() uint64 {
	metrics.Read(allocSample)
	return allocSample[0].Value.Uint64()
}

// run repeats one harness experiment — fresh VM per invocation, module
// import, Iterations calls of run(), noise applied to simulated cycles —
// and returns the invocations the harness would have recorded. The sample
// set must be bit-identical to the harness's; the caller checks that by
// digest. With opts.WithCounters, each invocation is first run without
// the counter model as a reference, so the model's added time shows.
func (x *replica) run(b workloads.Benchmark, opts harness.Options) (*harness.Result, error) {
	code, err := x.compiled(b)
	if err != nil {
		return nil, err
	}
	if opts.Invocations <= 0 {
		opts.Invocations = 10
	}
	if opts.Iterations <= 0 {
		opts.Iterations = 30
	}
	sp := x.tr.begin("harness.run")
	defer x.tr.end(sp)
	res := &harness.Result{Benchmark: b.Name, Mode: opts.Mode}
	for i := 0; i < opts.Invocations; i++ {
		if opts.WithCounters {
			ref := x.tr.beginRef("ref.invocation")
			_, err := x.invocation(code, opts, i, false)
			x.tr.end(ref)
			if err != nil {
				return nil, err
			}
		}
		inv, err := x.invocation(code, opts, i, opts.WithCounters)
		if err != nil {
			return nil, fmt.Errorf("%s invocation %d: %w", b.Name, i, err)
		}
		res.Invocations = append(res.Invocations, *inv)
	}
	return res, nil
}

// invocation mirrors the harness's invocation loop. With probe, the VM
// calls are recorded as counters.* spans so their time can be split
// between the VM and the counter model against the reference run.
func (x *replica) invocation(code *minipy.Code, opts harness.Options, idx int, probe bool) (*harness.Invocation, error) {
	var model *counters.Model
	cfg := vm.Config{Mode: opts.Mode, MaxSteps: 1 << 32}
	if probe {
		model = counters.NewModel()
		cfg.Probe = model
	}
	engine := vm.New(cfg)
	prefix := "vm."
	if probe {
		prefix = "counters.vm_"
	}
	sp := x.tr.begin(prefix + "module")
	_, err := engine.RunModule(code)
	x.tr.end(sp)
	if err != nil {
		return nil, fmt.Errorf("module setup: %w", err)
	}
	src := noise.NewSource(opts.Noise, opts.Seed, idx)
	inv := &harness.Invocation{
		TimesSec: make([]float64, 0, opts.Iterations),
		Cycles:   make([]uint64, 0, opts.Iterations),
		Steps:    make([]uint64, 0, opts.Iterations),
	}
	const hz = 3.0e9 // the harness's default 3 GHz clock
	var last minipy.Value
	for j := 0; j < opts.Iterations; j++ {
		before := engine.CountersSnapshot()
		var a0 uint64
		if x.tr != nil {
			a0 = heapAllocs()
		}
		sp := x.tr.begin(prefix + "run")
		v, err := engine.CallGlobal("run")
		x.tr.end(sp)
		if err != nil {
			return nil, fmt.Errorf("run() iteration %d: %w", j, err)
		}
		last = v
		delta := engine.CountersSnapshot().Sub(before)
		if x.tr != nil && !x.tr.inRef() {
			x.tr.add("vm.alloc_bytes", float64(heapAllocs()-a0))
			x.tr.add("vm.iters", 1)
			x.tr.add("vm.steps", float64(delta.Steps))
		}
		inv.TimesSec = append(inv.TimesSec, src.Apply(float64(delta.Cycles)/hz))
		inv.Cycles = append(inv.Cycles, delta.Cycles)
		inv.Steps = append(inv.Steps, delta.Steps)
	}
	if last != nil {
		inv.Checksum = last.Repr()
	}
	if model != nil {
		snap := model.Snapshot()
		inv.Counters = &snap
		inv.Mix = model.Mix()
		x.tr.add("counters.ops", float64(snap.Ops))
		x.tr.add("counters.instructions", float64(snap.Instructions))
		for _, m := range []struct {
			name string
			mpki float64
		}{
			{"counters.l1_misses", snap.L1MPKI},
			{"counters.l2_misses", snap.L2MPKI},
			{"counters.tlb_misses", snap.TLBMPKI},
			{"counters.branch_misses", snap.BranchMPKI},
		} {
			x.tr.add(m.name, m.mpki*float64(snap.Instructions)/1000)
		}
	}
	inv.JITTraces, inv.JITBridges, inv.GuardFails = engine.JITStats()
	if x.tr != nil && !x.tr.inRef() {
		x.tr.add("vm.jit_traces", float64(inv.JITTraces))
		x.tr.add("vm.guard_fails", float64(inv.GuardFails))
	}
	return inv, nil
}
