package harness

import (
	"errors"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
	"time"

	"repro/internal/faults"
	"repro/internal/noise"
	"repro/internal/vm"
	"repro/internal/wal"
)

// TestMain doubles as the worker binary: with PYBENCH_TEST_WORKER set the
// test binary re-execs into WorkerMain — the same trick `pybench -worker`
// plays in production, so subprocess isolation is testable without a
// separately built CLI.
func TestMain(m *testing.M) {
	if os.Getenv("PYBENCH_TEST_WORKER") != "" {
		if err := WorkerMain(os.Stdin, os.Stdout); err != nil {
			os.Exit(1)
		}
		os.Exit(0)
	}
	os.Exit(m.Run())
}

// testIsolation builds IsolationOptions that re-exec this test binary.
func testIsolation(t *testing.T) IsolationOptions {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatalf("os.Executable: %v", err)
	}
	return IsolationOptions{
		Enabled: true,
		Command: []string{exe},
		Env:     []string{"PYBENCH_TEST_WORKER=1"},
	}
}

// sameSamples asserts two results carry bit-identical sample sets.
func sameSamples(t *testing.T, want, got *Result, label string) {
	t.Helper()
	if len(want.Invocations) != len(got.Invocations) {
		t.Fatalf("%s: %d invocations vs %d", label, len(got.Invocations), len(want.Invocations))
	}
	for i := range want.Invocations {
		if !reflect.DeepEqual(want.Invocations[i].TimesSec, got.Invocations[i].TimesSec) {
			t.Fatalf("%s: invocation %d samples differ", label, i)
		}
		if want.Invocations[i].Checksum != got.Invocations[i].Checksum {
			t.Fatalf("%s: invocation %d checksum differs", label, i)
		}
	}
}

func TestIsolatedRunMatchesInProcess(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 4, Iterations: 3, Seed: 42, Noise: noise.Default()}
	inproc, err := NewSupervisor(NewRunner(), SupervisorOptions{}).Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := NewSupervisor(NewRunner(), SupervisorOptions{Isolation: testIsolation(t)}).Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSamples(t, inproc, iso, "isolated vs in-process")
	if iso.Supervision.Isolation != "subprocess" {
		t.Fatalf("Isolation = %q, want subprocess", iso.Supervision.Isolation)
	}
	if inproc.Supervision.Isolation != "in-process" {
		t.Fatalf("Isolation = %q, want in-process", inproc.Supervision.Isolation)
	}
}

func TestIsolatedParallelMatchesSequential(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 6, Iterations: 3, Seed: 7, Noise: noise.Default()}
	seq, err := NewSupervisor(NewRunner(), SupervisorOptions{}).Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	par, err := NewSupervisor(NewRunner(), SupervisorOptions{Isolation: testIsolation(t)}).
		RunParallel(b, opts, ParallelOptions{Workers: 3, Policy: PolicyForce})
	if err != nil {
		t.Fatal(err)
	}
	sameSamples(t, seq, par, "isolated parallel vs sequential")
}

func TestIsolationFallsBackOnBadCommand(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 2, Iterations: 2, Seed: 5, Noise: noise.Default()}
	iso := IsolationOptions{Enabled: true, Command: []string{"/nonexistent/worker/binary"}}
	res, err := NewSupervisor(NewRunner(), SupervisorOptions{Isolation: iso}).Run(b, opts)
	if err != nil {
		t.Fatalf("fallback must keep the campaign alive: %v", err)
	}
	sup := res.Supervision
	if sup.Isolation == "subprocess" || sup.Isolation == "in-process" {
		t.Fatalf("Isolation = %q, want a fallback note", sup.Isolation)
	}
	inproc, err := NewSupervisor(NewRunner(), SupervisorOptions{}).Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	sameSamples(t, inproc, res, "fallback vs in-process")
}

// TestIsolatedFaultFatesMatchInProcess drives injected child kills and
// stalls through both substrates: the attempt fates — and therefore the
// surviving sample set — must be identical, because the fault schedule is a
// pure function of the seed and both substrates realize each fault as an
// attempt failure.
func TestIsolatedFaultFatesMatchInProcess(t *testing.T) {
	b := mustBench(t, "fib")
	so := func(iso IsolationOptions) SupervisorOptions {
		iso.Watchdog = time.Second // reap injected stalls quickly
		return SupervisorOptions{
			MaxRetries: 3,
			Quorum:     3,
			Faults:     faults.Params{KillProb: 0.3, StallProb: 0.15},
			Isolation:  iso,
		}
	}
	opts := Options{Invocations: 6, Iterations: 3, Seed: 33, Noise: noise.Default()}
	inproc, err := NewSupervisor(NewRunner(), so(IsolationOptions{})).Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := NewSupervisor(NewRunner(), so(testIsolation(t))).Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if inproc.Supervision.InjectedFaults == 0 {
		t.Fatal("fault model injected nothing; test proves nothing")
	}
	if iso.Supervision.InjectedFaults != inproc.Supervision.InjectedFaults {
		t.Fatalf("injected faults differ: %d isolated vs %d in-process",
			iso.Supervision.InjectedFaults, inproc.Supervision.InjectedFaults)
	}
	for i := range inproc.Supervision.Log {
		il, sl := iso.Supervision.Log[i], inproc.Supervision.Log[i]
		if il.Status != sl.Status || len(il.Attempts) != len(sl.Attempts) {
			t.Fatalf("slot %d fate differs: isolated %s/%d vs in-process %s/%d",
				i, il.Status, len(il.Attempts), sl.Status, len(sl.Attempts))
		}
	}
	sameSamples(t, inproc, iso, "faulted isolated vs in-process")
	if iso.Supervision.WorkerKills == 0 {
		t.Fatal("injected kills/stalls should show up as worker kills")
	}
}

func TestJournalCheckpointCrashResume(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 5, Iterations: 3, Seed: 9, Noise: noise.Default()}
	clean, err := NewSupervisor(NewRunner(), SupervisorOptions{}).Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "campaign.wal")
	ck := NewJournalCheckpoint(path)
	_, err = NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: ck, CrashAfter: 3}).Run(b, opts)
	if !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("want ErrCrashPoint, got %v", err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	// A fresh store instance replays the journal the "crash" left behind.
	ck2 := NewJournalCheckpoint(path)
	defer ck2.Close()
	res, err := NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: ck2}).Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supervision.ResumedFrom != 3 {
		t.Fatalf("ResumedFrom = %d, want 3", res.Supervision.ResumedFrom)
	}
	if res.Supervision.Journal == nil || !res.Supervision.Journal.Clean() {
		t.Fatalf("clean crash must leave a clean journal: %+v", res.Supervision.Journal)
	}
	sameSamples(t, clean, res, "resumed vs uninterrupted")
}

func TestJournalTornTailResumesLosslessly(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 4, Iterations: 3, Seed: 13, Noise: noise.Default()}
	clean, err := NewSupervisor(NewRunner(), SupervisorOptions{}).Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}

	path := filepath.Join(t.TempDir(), "campaign.wal")
	ck := NewJournalCheckpoint(path)
	_, err = NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: ck, CrashAfter: 2}).Run(b, opts)
	if !errors.Is(err, ErrCrashPoint) {
		t.Fatalf("want ErrCrashPoint, got %v", err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the tail: kill -9 mid-append leaves a half-written final frame.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, raw[:len(raw)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	ck2 := NewJournalCheckpoint(path)
	defer ck2.Close()
	res, err := NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: ck2}).Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	// The torn record (one slot) is lost and re-run; everything intact is kept.
	if res.Supervision.ResumedFrom != 1 {
		t.Fatalf("ResumedFrom = %d, want 1 (torn slot re-run)", res.Supervision.ResumedFrom)
	}
	if res.Supervision.Journal == nil || res.Supervision.Journal.TornTailBytes == 0 {
		t.Fatalf("torn tail must be reported: %+v", res.Supervision.Journal)
	}
	if !res.Supervision.Degraded() {
		t.Fatal("journal damage must mark the run degraded")
	}
	sameSamples(t, clean, res, "torn-tail resume vs uninterrupted")
}

func TestCheckpointErrorsAreSurvived(t *testing.T) {
	b := mustBench(t, "fib")
	opts := Options{Invocations: 3, Iterations: 2, Seed: 17, Noise: noise.Default()}
	// A journal whose every write hits ENOSPC: the campaign must finish
	// anyway and report the lost durability.
	full := faults.NewChaosFS(wal.OSFS{}, faults.Params{DiskFullProb: 1}, 1)
	ck := NewJournalCheckpointFS(full, filepath.Join(t.TempDir(), "full.ckpt.wal"))
	res, err := NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: ck}).Run(b, opts)
	if err != nil {
		t.Fatalf("checkpoint failure must not kill the run: %v", err)
	}
	sup := res.Supervision
	if sup.CheckpointErrors != 3 {
		t.Fatalf("CheckpointErrors = %d, want 3", sup.CheckpointErrors)
	}
	if !strings.Contains(sup.CheckpointError, "no space left") || !sup.Degraded() {
		t.Fatalf("failed durability must degrade the run: %+v", sup)
	}
}

// TestSupervisorClosesCheckpointJournal pins that a supervised run releases
// its journal's file descriptor on return instead of leaving it to the
// garbage collector: reusing one store across runs must not grow the
// process's open files.
func TestSupervisorClosesCheckpointJournal(t *testing.T) {
	if _, err := os.ReadDir("/proc/self/fd"); err != nil {
		t.Skip("no /proc/self/fd on this platform")
	}
	openFDs := func() int {
		ents, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Fatal(err)
		}
		return len(ents)
	}
	b := mustBench(t, "fib")
	dir := t.TempDir()
	opts := Options{Invocations: 1, Iterations: 1, Seed: 5, Noise: noise.Default()}
	run := func() {
		t.Helper()
		ck := JournalCheckpointFor(dir, b.Name, vm.ModeInterp)
		if _, err := NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: ck}).Run(b, opts); err != nil {
			t.Fatal(err)
		}
	}
	run() // warm-up: lazily created runtime descriptors are not leaks
	before := openFDs()
	for i := 0; i < 40; i++ {
		run()
	}
	if after := openFDs(); after > before {
		t.Fatalf("open file descriptors grew from %d to %d over 40 supervised runs", before, after)
	}
}

// TestResumesJournalFromCheckpointV3 resumes a journal committed as a
// fixture (fib, 3 invocations, crashed after the first completed slot) so
// that an on-disk format change cannot slip through: `pybench -resume`
// directories written by earlier builds must keep resuming.
func TestResumesJournalFromCheckpointV3(t *testing.T) {
	raw, err := os.ReadFile(filepath.Join("testdata", "fib_interp.ckpt.wal"))
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := os.WriteFile(filepath.Join(dir, "fib_interp.ckpt.wal"), raw, 0o644); err != nil {
		t.Fatal(err)
	}
	b := mustBench(t, "fib")
	opts := Options{Mode: vm.ModeInterp, Invocations: 3, Iterations: 3, Seed: 42, Noise: noise.Default()}
	clean, err := NewSupervisor(NewRunner(), SupervisorOptions{}).Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	ck := JournalCheckpointFor(dir, b.Name, vm.ModeInterp)
	res, err := NewSupervisor(NewRunner(), SupervisorOptions{Checkpoint: ck}).Run(b, opts)
	if err != nil {
		t.Fatal(err)
	}
	if res.Supervision.ResumedFrom != 1 {
		t.Fatalf("ResumedFrom = %d, want 1", res.Supervision.ResumedFrom)
	}
	if j := res.Supervision.Journal; j == nil || !j.Clean() || j.Records != 2 {
		t.Fatalf("fixture journal must recover clean with 2 records: %+v", j)
	}
	sameSamples(t, clean, res, "fixture resume vs uninterrupted")
}

func TestQuorumFailureIsErrQuorum(t *testing.T) {
	b := mustBench(t, "fib")
	so := SupervisorOptions{Faults: faults.Params{PanicProb: 1.0}}
	opts := Options{Invocations: 3, Iterations: 2, Seed: 3, Noise: noise.Default()}
	_, err := NewSupervisor(NewRunner(), so).Run(b, opts)
	if !errors.Is(err, ErrQuorum) {
		t.Fatalf("want ErrQuorum, got %v", err)
	}
}

func TestJitterBackoffDeterministicAndBounded(t *testing.T) {
	base, max := 100*time.Millisecond, 5*time.Second
	for inv := 0; inv < 8; inv++ {
		for attempt := 0; attempt < 10; attempt++ {
			d1 := jitterBackoff(base, max, 99, inv, attempt)
			d2 := jitterBackoff(base, max, 99, inv, attempt)
			if d1 != d2 {
				t.Fatalf("jitter not deterministic at (%d,%d): %s vs %s", inv, attempt, d1, d2)
			}
			env := base << uint(attempt)
			if env > max || env <= 0 {
				env = max
			}
			if d1 < env/2 || d1 > env {
				t.Fatalf("backoff %s outside [%s, %s] at (%d,%d)", d1, env/2, env, inv, attempt)
			}
		}
	}
	// Different invocations must desynchronize (no thundering herd).
	if jitterBackoff(base, max, 99, 0, 1) == jitterBackoff(base, max, 99, 1, 1) &&
		jitterBackoff(base, max, 99, 0, 2) == jitterBackoff(base, max, 99, 2, 2) {
		t.Fatal("jitter identical across invocations; streams not split")
	}
}
