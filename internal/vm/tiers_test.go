package vm_test

import (
	"bytes"
	"fmt"
	"reflect"
	"testing"

	"repro/internal/analysis"
	"repro/internal/counters"
	"repro/internal/minipy"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// tierIterations is how many run() calls each cross-tier arm makes: enough
// for the JIT to compile traces and take guard failures after the first.
const tierIterations = 3

// tierObservation is everything one invocation exposes to a measurement:
// the per-iteration counter deltas (from which the harness derives cycles,
// steps and perturbed sample times), the counter model's snapshot and
// instruction mix, the JIT statistics, the result checksum and the
// printed output.
type tierObservation struct {
	Deltas   []vm.Counters
	Model    counters.Snapshot
	Mix      counters.InstructionMix
	JIT      [3]int
	Checksum string
	Output   string
}

// observe runs one invocation — module body, then tierIterations calls of
// run() — on in, whose counter model and output sink are model and out.
func observe(t *testing.T, in *vm.Interp, model *counters.Model, out *bytes.Buffer,
	runModule func() error) tierObservation {
	t.Helper()
	if err := runModule(); err != nil {
		t.Fatalf("module: %v", err)
	}
	var o tierObservation
	var last minipy.Value
	for j := 0; j < tierIterations; j++ {
		before := in.CountersSnapshot()
		v, err := in.CallGlobal("run")
		if err != nil {
			t.Fatalf("run() iteration %d: %v", j, err)
		}
		last = v
		o.Deltas = append(o.Deltas, in.CountersSnapshot().Sub(before))
	}
	o.Model, o.Mix = model.Snapshot(), model.Mix()
	o.JIT[0], o.JIT[1], o.JIT[2] = in.JITStats()
	o.Checksum = last.Repr()
	o.Output = out.String()
	return o
}

// TestRegisterTierPreservesResults is the differential witness for the
// register tier (DESIGN.md §16): every workload in the suite and the
// extended set, at opt 0 and opt 2, under the interpreter and the JIT,
// must expose identical observations when its prepared Program runs on the
// register tier and when its code runs on the stack reference. The two are
// host-level implementations of one simulated machine; any quickening
// guard, unboxing escape, or lowering bug that changes an observable fails
// here by workload name. Sample sets are a function of the counter deltas
// and the noise seed, so equal deltas mean bit-identical sample sets.
func TestRegisterTierPreservesResults(t *testing.T) {
	benches := append(append([]workloads.Benchmark{}, workloads.Suite()...),
		workloads.Extended()...)
	cache := workloads.NewCodeCache()
	for _, b := range benches {
		for _, opt := range []int{0, 2} {
			entry, _, err := cache.GetOpt(b, opt)
			if err != nil {
				t.Fatalf("%s opt %d: %v", b.Name, opt, err)
			}
			t.Run(fmt.Sprintf("%s/opt%d", b.Name, opt), func(t *testing.T) {
				for _, mode := range []vm.Mode{vm.ModeInterp, vm.ModeJIT} {
					mode := mode
					t.Run(mode.String(), func(t *testing.T) {
						t.Parallel()
						regModel, stackModel := counters.NewModel(), counters.NewModel()
						var regOut, stackOut bytes.Buffer
						reg := vm.New(vm.Config{Mode: mode, Probe: regModel, Out: &regOut})
						stack := vm.NewStackReference(vm.Config{Mode: mode, Probe: stackModel, Out: &stackOut})
						ro := observe(t, reg, regModel, &regOut, func() error {
							_, err := reg.RunProgram(entry.Program)
							return err
						})
						so := observe(t, stack, stackModel, &stackOut, func() error {
							_, err := stack.RunModule(entry.Code)
							return err
						})
						if stack.DisassembleQuickened(entry.Code) != "" || reg.DisassembleQuickened(entry.Code) == "" {
							t.Fatal("arms did not run on the stack reference and the register tier")
						}
						if b.Checksum != "" && ro.Checksum != b.Checksum {
							t.Errorf("checksum %s, want %s", ro.Checksum, b.Checksum)
						}
						if !reflect.DeepEqual(ro, so) {
							t.Errorf("observations diverged between tiers:\nreg:   %+v\nstack: %+v", ro, so)
						}
					})
				}
			})
		}
	}
}

// TestSoundnessAgreesAcrossTiers runs the analysis soundness checker over
// both tiers: the register tier's boxed shadow stack, materialized per op
// for the ValueTracer, must present the checker with exactly the operand
// values the stack reference would have — same violations (none), same
// checksum, same executed steps. A divergence here means the register
// tier's escape-point boxing changed an observable value.
func TestSoundnessAgreesAcrossTiers(t *testing.T) {
	cache := workloads.NewCodeCache()
	for _, name := range []string{"fib", "matmul", "branchy", "strings"} {
		b, ok := workloads.ByName(name)
		if !ok {
			t.Fatalf("no benchmark %q", name)
		}
		entry, _, err := cache.GetOpt(b, 2)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		t.Run(name, func(t *testing.T) {
			t.Parallel()
			rep, err := analysis.Analyze(entry.Code)
			if err != nil {
				t.Fatalf("analyze: %v", err)
			}
			type arm struct {
				name      string
				newInterp func(vm.Config) *vm.Interp
				checksum  string
				steps     uint64
			}
			arms := []arm{{name: "reg", newInterp: vm.New}, {name: "stack", newInterp: vm.NewStackReference}}
			for i := range arms {
				a := &arms[i]
				chk := analysis.NewSoundnessChecker(rep.Facts())
				in := a.newInterp(vm.Config{Tracer: chk, MaxSteps: 500_000_000})
				chk.Attach(in)
				if _, err := in.RunModule(entry.Code); err != nil {
					t.Fatalf("%s module: %v", a.name, err)
				}
				v, err := in.CallGlobal("run")
				if err != nil {
					t.Fatalf("%s run(): %v", a.name, err)
				}
				for _, viol := range chk.Violations() {
					t.Errorf("%s soundness violation: %s", a.name, viol)
				}
				a.checksum = v.Repr()
				a.steps = in.CountersSnapshot().Steps
			}
			if arms[0].checksum != arms[1].checksum {
				t.Errorf("checksum diverged: reg %s, stack %s", arms[0].checksum, arms[1].checksum)
			}
			if arms[0].steps != arms[1].steps {
				t.Errorf("steps diverged: reg %d, stack %d", arms[0].steps, arms[1].steps)
			}
		})
	}
}
