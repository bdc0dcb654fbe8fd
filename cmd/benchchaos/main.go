// Command benchchaos is the chaos soak driver: it runs a benchmark
// campaign under a seeded storm of environment faults — worker kills,
// stalled children reaped by the watchdog, torn and corrupted journal
// writes, full disks, and deliberate supervisor crashes with
// resume-from-journal — and asserts the crash-only contract: the final
// merged sample set is bit-identical to the same campaign executed
// in-process on reliable storage with no crashes.
//
// The reference run realizes the same deterministic fault schedule (fates
// are a pure function of the seed), so the comparison isolates exactly
// what chaos is allowed to change: nothing.
//
// Usage:
//
//	benchchaos -bench fib -invocations 8 -iterations 5 -seed 42
//	benchchaos -faults 'kill=0.3,stall=0.1,torn=0.2' -crashes 3 -workers 4
//	benchchaos -runs 5 -seed 100   # five rounds, seeds 100..104
//
// Exit codes follow the repository taxonomy: 0 = chaos was invisible;
// 1 = divergence (the crash machinery changed the science); 2 = usage;
// 3 = infrastructure failure; 4 = the chaos run degraded below quorum.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"time"

	"repro/internal/exitcode"
	"repro/internal/faults"
	"repro/internal/harness"
	"repro/internal/noise"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/wal"
	"repro/internal/workloads"
)

func main() {
	// Hidden re-exec mode: the soak's isolated workers are this binary.
	if len(os.Args) == 2 && os.Args[1] == "-worker" {
		if err := harness.WorkerMain(os.Stdin, os.Stdout); err != nil {
			fmt.Fprintln(os.Stderr, "benchchaos -worker:", err)
			os.Exit(exitcode.Infra)
		}
		return
	}
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

type config struct {
	bench       string
	mode        vm.Mode
	invocations int
	iterations  int
	seed        uint64
	runs        int
	retries     int
	crashes     int
	workers     int
	faults      faults.Params
	isolate     bool
	watchdog    time.Duration
	dir         string
	verbose     bool
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("benchchaos", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		bench       = fs.String("bench", "fib", "benchmark to soak")
		modeName    = fs.String("mode", "interp", "engine: interp or jit")
		invocations = fs.Int("invocations", 8, "invocations per campaign")
		iterations  = fs.Int("iterations", 5, "iterations per invocation")
		seed        = fs.Uint64("seed", 42, "campaign seed (round i uses seed+i)")
		runs        = fs.Int("runs", 1, "independent soak rounds")
		retries     = fs.Int("retries", 8, "per-invocation retry budget")
		crashes     = fs.Int("crashes", 2, "deliberate supervisor crashes (kill -9 simulations) per round")
		workers     = fs.Int("workers", 1, "parallel shards for the chaos run")
		faultsSpec  = fs.String("faults", "chaos", "fault model: chaos, light, heavy, none, or kind=prob list")
		isolate     = fs.Bool("isolate", true, "run chaos invocations in watchdogged worker subprocesses")
		watchdog    = fs.Duration("watchdog", 2*time.Second, "SIGKILL a worker that is silent this long (stalled children hold a slot until reaped)")
		dir         = fs.String("dir", "", "journal directory (default: a temp dir, removed on success)")
		verbose     = fs.Bool("v", false, "print per-round supervision detail")
	)
	if err := fs.Parse(args); err != nil {
		return exitcode.Usage
	}
	if fs.NArg() > 0 {
		fmt.Fprintf(stderr, "benchchaos: unexpected argument %q\n", fs.Arg(0))
		return exitcode.Usage
	}
	cfg := config{
		bench: *bench, invocations: *invocations, iterations: *iterations,
		seed: *seed, runs: *runs, retries: *retries, crashes: *crashes,
		workers: *workers, isolate: *isolate, watchdog: *watchdog, dir: *dir, verbose: *verbose,
	}
	switch *modeName {
	case "interp":
		cfg.mode = vm.ModeInterp
	case "jit":
		cfg.mode = vm.ModeJIT
	default:
		fmt.Fprintf(stderr, "benchchaos: unknown mode %q\n", *modeName)
		return exitcode.Usage
	}
	fp, err := faults.Parse(*faultsSpec)
	if err != nil {
		fmt.Fprintln(stderr, "benchchaos:", err)
		return exitcode.Usage
	}
	cfg.faults = fp
	if _, ok := workloads.ByName(cfg.bench); !ok {
		fmt.Fprintf(stderr, "benchchaos: unknown benchmark %q\n", cfg.bench)
		return exitcode.Usage
	}
	if cfg.dir == "" {
		tmp, err := os.MkdirTemp("", "benchchaos-")
		if err != nil {
			fmt.Fprintln(stderr, "benchchaos:", err)
			return exitcode.Infra
		}
		//benchlint:allow uncheckederr — best-effort temp-dir cleanup
		defer os.RemoveAll(tmp)
		cfg.dir = tmp
	}

	worst := exitcode.OK
	for round := 0; round < cfg.runs; round++ {
		rc := cfg
		rc.seed = cfg.seed + uint64(round)
		code := soakRound(rc, round, stdout, stderr)
		if code > worst {
			worst = code
		}
	}
	if worst == exitcode.OK {
		fmt.Fprintf(stdout, "benchchaos: PASS: %d round(s), chaos left no fingerprint on the sample set\n", cfg.runs)
	}
	return worst
}

// soakRound executes one reference + chaos campaign pair and compares.
func soakRound(cfg config, round int, stdout, stderr io.Writer) int {
	b, _ := workloads.ByName(cfg.bench)
	opts := harness.Options{
		Mode:        cfg.mode,
		Invocations: cfg.invocations,
		Iterations:  cfg.iterations,
		Seed:        cfg.seed,
		Noise:       noise.Default(),
	}
	base := harness.SupervisorOptions{
		MaxRetries: cfg.retries,
		Quorum:     1,
		Faults:     cfg.faults,
	}

	// Reference: same fault schedule, in-process, reliable storage, no
	// crashes. This is the campaign's ground truth.
	ref, err := harness.NewSupervisor(harness.NewRunner(), base).Run(b, opts)
	if err != nil {
		fmt.Fprintf(stderr, "benchchaos: round %d: reference run failed: %v\n", round, err)
		return exitcode.Infra
	}

	// Chaos: subprocess isolation, journal on a fault-injecting filesystem,
	// and deliberate crash points with journal resume in between.
	journal := filepath.Join(cfg.dir, fmt.Sprintf("round%d.wal", round))
	chaosFS := faults.NewChaosFS(wal.OSFS{}, cfg.faults.Storage(), cfg.seed)
	iso := harness.IsolationOptions{}
	if cfg.isolate {
		exe, err := os.Executable()
		if err != nil {
			fmt.Fprintf(stderr, "benchchaos: round %d: %v\n", round, err)
			return exitcode.Infra
		}
		iso = harness.IsolationOptions{Enabled: true, Command: []string{exe, "-worker"}, Watchdog: cfg.watchdog}
	}
	// Crash points are drawn from the campaign seed: each segment completes
	// a deterministic number of fresh slots, then the supervisor aborts as
	// a kill -9 would, and the next segment resumes from the journal.
	crashRNG := stats.NewRNG(cfg.seed).Split(0xC4A5)
	var res *harness.Result
	segments := 0
	for {
		so := base
		so.Isolation = iso
		so.Checkpoint = harness.NewJournalCheckpointFS(chaosFS, journal)
		if segments < cfg.crashes {
			so.CrashAfter = 1 + int(crashRNG.Uint64()%uint64(maxInt(1, cfg.invocations/2)))
		}
		res, err = harness.NewSupervisor(harness.NewRunner(), so).
			RunParallel(b, opts, harness.ParallelOptions{Workers: cfg.workers, Policy: harness.PolicyForce})
		segments++
		if errors.Is(err, harness.ErrCrashPoint) {
			if cfg.verbose {
				fmt.Fprintf(stdout, "benchchaos: round %d: segment %d crashed on schedule, resuming from journal\n", round, segments)
			}
			continue
		}
		break
	}
	switch {
	case errors.Is(err, harness.ErrQuorum):
		fmt.Fprintf(stderr, "benchchaos: round %d: DEGRADED below quorum: %v\n", round, err)
		if res != nil && res.Supervision != nil {
			fmt.Fprintf(stderr, "benchchaos: round %d: %s\n", round, res.Supervision.Summary())
		}
		return exitcode.Degraded
	case err != nil:
		fmt.Fprintf(stderr, "benchchaos: round %d: chaos run failed: %v\n", round, err)
		return exitcode.Infra
	}

	sup := res.Supervision
	if cfg.verbose {
		fmt.Fprintf(stdout, "benchchaos: round %d: %d segment(s); %s\n", round, segments, sup.Summary())
		for _, rec := range chaosFS.Injected() {
			fmt.Fprintf(stdout, "benchchaos: round %d: storage fault: %s at write %d (%s)\n",
				round, rec.Kind, rec.Write, rec.Detail)
		}
	}
	if code := compare(ref, res, round, stdout, stderr); code != exitcode.OK {
		return code
	}
	activity := sup.WorkerKills + sup.Retries + sup.CheckpointErrors + len(chaosFS.Injected()) + (segments - 1)
	fmt.Fprintf(stdout,
		"benchchaos: round %d (seed %d): PASS: %d invocations identical through %d crash(es), %d worker kill(s), %d retry(ies), %d storage fault(s), %d checkpoint error(s)\n",
		round, cfg.seed, len(res.Invocations), segments-1, sup.WorkerKills, sup.Retries,
		len(chaosFS.Injected()), sup.CheckpointErrors)
	if activity == 0 && cfg.faults.Enabled() {
		fmt.Fprintf(stdout, "benchchaos: round %d: note: schedule injected nothing; raise probabilities or invocations for a harder soak\n", round)
	}
	return exitcode.OK
}

// compare asserts the chaos result carries exactly the reference's sample
// set: the same surviving slots, bit-identical measurements. Dropped slots
// (possible when the schedule exhausts a retry budget) must be the same
// slots in both runs — fates are seed-determined, so a divergence means the
// environment machinery leaked into the science.
func compare(ref, chaos *harness.Result, round int, stdout, stderr io.Writer) int {
	rs, cs := survivors(ref), survivors(chaos)
	if !reflect.DeepEqual(rs, cs) {
		fmt.Fprintf(stderr, "benchchaos: round %d: FAIL: surviving slots differ: reference %v vs chaos %v\n",
			round, rs, cs)
		return exitcode.Finding
	}
	if len(ref.Invocations) != len(chaos.Invocations) {
		fmt.Fprintf(stderr, "benchchaos: round %d: FAIL: invocation counts differ: %d vs %d\n",
			round, len(ref.Invocations), len(chaos.Invocations))
		return exitcode.Finding
	}
	for i := range ref.Invocations {
		ri, ci := ref.Invocations[i], chaos.Invocations[i]
		if !reflect.DeepEqual(ri.TimesSec, ci.TimesSec) {
			fmt.Fprintf(stderr, "benchchaos: round %d: FAIL: slot %d sample vectors differ\n", round, rs[i])
			return exitcode.Finding
		}
		if ri.Checksum != ci.Checksum {
			fmt.Fprintf(stderr, "benchchaos: round %d: FAIL: slot %d checksums differ: %s vs %s\n",
				round, rs[i], ri.Checksum, ci.Checksum)
			return exitcode.Finding
		}
	}
	if dropped := ref.Supervision.Dropped; dropped > 0 {
		fmt.Fprintf(stdout, "benchchaos: round %d: note: %d slot(s) dropped by the fault schedule in both runs (footnoted degradation, not divergence)\n",
			round, dropped)
	}
	return exitcode.OK
}

// survivors lists the slot indices that contributed samples, in order.
func survivors(res *harness.Result) []int {
	var idx []int
	for _, lg := range res.Supervision.Log {
		if lg.Status != harness.StatusDropped {
			idx = append(idx, lg.Index)
		}
	}
	return idx
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
