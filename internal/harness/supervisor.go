package harness

import (
	"errors"
	"fmt"
	"math"
	"strconv"
	"sync"
	"time"

	"repro/internal/analysis"
	"repro/internal/faults"
	"repro/internal/stats"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/wal"
	"repro/internal/workloads"
)

// ErrQuorum marks the degraded-below-quorum failure: the campaign ran to
// completion but too few invocations survived. The CLI taxonomy maps it to
// exit code 4 (degraded), distinct from infrastructure failures.
var ErrQuorum = errors.New("quorum not met")

// ErrCrashPoint is returned when a deliberate crash point (see
// SupervisorOptions.CrashAfter) fired. The campaign's journal is left
// exactly as a kill -9 at that moment would leave it; a rerun with the
// same checkpoint store resumes from it.
var ErrCrashPoint = errors.New("deliberate crash point reached")

// InvocationStatus classifies how one supervised invocation ended.
type InvocationStatus string

// Invocation outcomes.
const (
	// StatusClean means the invocation succeeded on its first attempt.
	StatusClean InvocationStatus = "clean"
	// StatusRecovered means the invocation succeeded after one or more
	// retries.
	StatusRecovered InvocationStatus = "recovered"
	// StatusDropped means every attempt failed; the invocation contributes
	// no samples and shrinks the experiment's effective N.
	StatusDropped InvocationStatus = "dropped"
)

// AttemptRecord documents one attempt at one invocation.
type AttemptRecord struct {
	Attempt int
	// Fault names the injected fault kind, "" when none was injected.
	Fault string `json:",omitempty"`
	// Error is the failure description, "" when the attempt succeeded.
	Error string `json:",omitempty"`
	// BackoffMs is the deterministic backoff scheduled before the next
	// attempt (recorded, and slept only when RealBackoff is set).
	BackoffMs int64 `json:",omitempty"`
}

// InvocationLog is the supervised history of one invocation slot.
type InvocationLog struct {
	Index    int
	Status   InvocationStatus
	Attempts []AttemptRecord
}

// Supervision is the fault-tolerance accounting of one supervised
// experiment. It rides on Result so both the JSON export and the report
// layer can surface exactly how degraded a run was.
type Supervision struct {
	// Planned is the requested invocation count N.
	Planned int
	// Quorum is the minimum successful invocations required (K of N).
	Quorum int
	// MaxRetries is the per-invocation retry budget.
	MaxRetries int
	// Faults is the injected fault model ("none" when disabled).
	Faults faults.Params
	// FaultSeed drives the deterministic fault schedule.
	FaultSeed uint64
	// Clean counts invocations that succeeded first try.
	Clean int
	// Recovered counts invocations that succeeded after retries.
	Recovered int
	// Dropped counts invocations whose every attempt failed.
	Dropped int
	// Attempts is the total attempt count across all invocations.
	Attempts int
	// Retries is the total retry count (attempts beyond each first).
	Retries int
	// InjectedFaults counts attempts that had a fault injected.
	InjectedFaults int
	// QuarantinedSamples counts corrupted (NaN/inf/non-positive) samples
	// detected and discarded together with their attempt.
	QuarantinedSamples int
	// ResumedFrom is the invocation index execution resumed at after a
	// checkpoint restore (0 = fresh run).
	ResumedFrom int `json:",omitempty"`
	// Isolation records the execution substrate: "subprocess" when worker
	// children executed the invocations, "in-process" otherwise, or an
	// "in-process (isolation fallback: ...)" note when subprocess
	// isolation was requested but unavailable.
	Isolation string `json:",omitempty"`
	// WorkerKills counts child processes that died mid-attempt — watchdog
	// SIGKILLs of hung children plus crashes (injected or genuine).
	WorkerKills int `json:",omitempty"`
	// WorkerRestarts counts replacement children spawned after a death.
	WorkerRestarts int `json:",omitempty"`
	// CheckpointErrors counts failed checkpoint/journal writes. The
	// campaign keeps running — losing durability must not lose the
	// in-flight work — but resume coverage is degraded and the run says so.
	CheckpointErrors int `json:",omitempty"`
	// CheckpointError is the first failure's description.
	CheckpointError string `json:",omitempty"`
	// Journal is the write-ahead journal's recovery report when the run
	// resumed from a journal-backed checkpoint: how many records were
	// intact, and whether a torn tail or corruption was repaired.
	Journal *wal.RecoveryReport `json:",omitempty"`
	// Log is the per-invocation attempt history.
	Log []InvocationLog
}

// EffectiveN is the number of invocations that contributed samples.
func (s *Supervision) EffectiveN() int { return s.Clean + s.Recovered }

// Degraded reports whether the experiment lost any work or durability:
// dropped invocations, retried invocations, quarantined samples, failed
// checkpoint writes, or journal damage repaired on resume.
func (s *Supervision) Degraded() bool {
	return s.Dropped > 0 || s.Recovered > 0 || s.QuarantinedSamples > 0 ||
		s.CheckpointErrors > 0 || (s.Journal != nil && !s.Journal.Clean())
}

// Summary renders a one-line human-readable account, suitable as a table
// footnote.
func (s *Supervision) Summary() string {
	msg := fmt.Sprintf(
		"supervision: effective N %d/%d (%d clean, %d recovered, %d dropped); %d attempts, %d retries, %d injected faults, %d quarantined samples; quorum %d",
		s.EffectiveN(), s.Planned, s.Clean, s.Recovered, s.Dropped,
		s.Attempts, s.Retries, s.InjectedFaults, s.QuarantinedSamples, s.Quorum)
	if s.ResumedFrom > 0 {
		msg += fmt.Sprintf("; resumed at invocation %d", s.ResumedFrom)
	}
	if s.Isolation != "" && s.Isolation != "in-process" {
		msg += "; isolation: " + s.Isolation
		if s.WorkerKills > 0 || s.WorkerRestarts > 0 {
			msg += fmt.Sprintf(" (%d worker kill(s), %d restart(s))", s.WorkerKills, s.WorkerRestarts)
		}
	}
	if s.CheckpointErrors > 0 {
		msg += fmt.Sprintf("; %d checkpoint write(s) failed (%s)", s.CheckpointErrors, s.CheckpointError)
	}
	if s.Journal != nil && !s.Journal.Clean() {
		msg += "; " + s.Journal.String()
	}
	return msg
}

// SupervisorOptions configures the fault-tolerant execution policy.
type SupervisorOptions struct {
	// MaxRetries is the retry budget per invocation (0 = no retries).
	MaxRetries int
	// Quorum is the minimum successful invocations for the experiment to
	// succeed. 0 (or > N) means all N must succeed.
	Quorum int
	// Faults is the injected fault model (zero value = none). Real-world
	// failures (panics, budget blowouts, bad samples) are handled the same
	// way whether or not injection is on.
	Faults faults.Params
	// FaultSeed seeds the fault schedule; 0 means use Options.Seed, so a
	// fault run is reproducible from the experiment seed alone.
	FaultSeed uint64
	// BackoffBase is the retry backoff base; attempt k schedules an
	// exponential envelope BackoffBase << k (capped at BackoffMax) scaled
	// by deterministic equal jitter drawn from the campaign RNG — a pure
	// function of (fault seed, invocation, attempt), so retry schedules
	// replay bit-identically. Defaults to 100ms. Backoff is recorded in
	// the attempt log and only actually slept when RealBackoff is set,
	// keeping simulated experiments instant and deterministic.
	BackoffBase time.Duration
	// BackoffMax caps the exponential envelope (default 5s).
	BackoffMax time.Duration
	// RealBackoff makes the supervisor actually sleep its backoff.
	RealBackoff bool
	// Checkpoint, when non-nil, appends every completed invocation to a
	// write-ahead journal so an interrupted experiment resumes without
	// re-running completed work.
	Checkpoint *JournalCheckpoint
	// Isolation shells invocation attempts out to watchdogged worker
	// child processes (see IsolationOptions).
	Isolation IsolationOptions
	// CrashAfter, when > 0, makes the supervisor return ErrCrashPoint
	// after that many slot completions — a deliberate crash point for
	// chaos testing resume-from-journal behaviour. 0 disables it.
	CrashAfter int
}

func (so SupervisorOptions) withDefaults() SupervisorOptions {
	if so.BackoffBase <= 0 {
		so.BackoffBase = 100 * time.Millisecond
	}
	if so.BackoffMax <= 0 {
		so.BackoffMax = 5 * time.Second
	}
	if so.MaxRetries < 0 {
		so.MaxRetries = 0
	}
	so.Isolation = so.Isolation.withDefaults()
	return so
}

// backoffSalt offsets the backoff jitter stream from the fault-schedule
// stream sharing the same seed.
const backoffSalt = 0xB0FF

// jitterBackoff computes the deterministic jittered backoff before the
// next attempt: an exponential envelope base<<attempt capped at max, then
// scaled into [1/2, 1] of itself by a uniform draw keyed on (seed,
// invocation, attempt) — "equal jitter". Retries across invocations
// desynchronize (no thundering herd against a contended host) while every
// schedule stays a replayable pure function of the campaign seed.
func jitterBackoff(base, max time.Duration, seed uint64, invIdx, attempt int) time.Duration {
	d := base
	for k := 0; k < attempt && d < max; k++ {
		d <<= 1
	}
	if d > max {
		d = max
	}
	id := uint64(invIdx)*0x1000003 + uint64(attempt) + backoffSalt
	u := stats.NewRNG(seed).Split(id).Float64()
	return time.Duration(float64(d) * (0.5 + 0.5*u))
}

// Supervisor wraps a Runner with crash isolation, per-invocation budgets,
// bounded retry, a quorum policy, and checkpoint/resume. With the zero
// SupervisorOptions it produces byte-identical results to Runner.Run —
// supervision is free until something goes wrong.
type Supervisor struct {
	r    *Runner
	opts SupervisorOptions
}

// NewSupervisor wraps a runner with the given policy.
func NewSupervisor(r *Runner, opts SupervisorOptions) *Supervisor {
	return &Supervisor{r: r, opts: opts.withDefaults()}
}

// newExecutor picks the execution substrate for one run. A failure to set
// up subprocess isolation degrades to in-process execution with the reason
// recorded — lack of isolation must never kill a campaign.
func (s *Supervisor) newExecutor(workers int) invocationExecutor {
	if !s.opts.Isolation.Enabled {
		return &inProcExecutor{r: s.r, note: "in-process"}
	}
	exec, err := newSubprocExecutor(s.r, s.opts.Isolation, workers)
	if err != nil {
		s.r.obs.Trace.Instant(trace.CatSupervisor, "isolation-fallback", "reason", err.Error())
		s.r.obs.Metrics.Counter(mIsolationFallbacks,
			"campaigns degraded from subprocess to in-process execution").Inc()
		return &inProcExecutor{r: s.r,
			note: "in-process (isolation fallback: " + err.Error() + ")"}
	}
	return exec
}

// experimentSalt derives a per-(benchmark, mode) fault-seed offset (FNV-1a
// over the name, mixed with the mode).
func experimentSalt(name string, mode vm.Mode) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h ^ uint64(mode+1)<<40
}

// retrySalt offsets the noise-stream invocation id on retries so a fresh
// attempt draws fresh noise (a real re-invocation would), without
// colliding with any first-attempt index.
const retrySalt = 1 << 20

// hangBudgetSteps is the tiny step budget used to realize an injected
// hang: the VM's own budget guard aborts the invocation, exercising the
// exact path a real runaway workload takes.
const hangBudgetSteps = 1

// Run executes the experiment under supervision.
func (s *Supervisor) Run(b workloads.Benchmark, opts Options) (*Result, error) {
	return s.runWith(b, opts, s.opts.Checkpoint, ParallelOptions{})
}

// RunParallel executes the experiment under supervision across po.Workers
// shards. Fault isolation, budgets, retry, and quarantine apply per shard
// exactly as they do sequentially; the sample set, attempt log, and
// supervision accounting are identical to the sequential supervised run
// because every slot's fate is a pure function of (seed, invocation id,
// attempt) and slots are merged in canonical order.
func (s *Supervisor) RunParallel(b workloads.Benchmark, opts Options, po ParallelOptions) (*Result, error) {
	return s.runWith(b, opts, s.opts.Checkpoint, po)
}

// runWith is the shared engine behind Run/RunParallel, with an explicit
// checkpoint store (RunPair gives each arm its own derived store). The
// store's journal is closed on every return path; a later run reopens it.
func (s *Supervisor) runWith(b workloads.Benchmark, opts Options,
	ckpt *JournalCheckpoint, po ParallelOptions) (_ *Result, err error) {
	if ckpt != nil {
		defer func() {
			if cerr := ckpt.Close(); cerr != nil && err == nil {
				err = fmt.Errorf("harness: %s: closing checkpoint: %w", b.Name, cerr)
			}
		}()
	}
	opts = opts.withDefaults()
	po = po.withDefaults()
	prog, summary, err := s.r.compiled(b, opts.Opt)
	if err != nil {
		return nil, fmt.Errorf("harness: %s: %w", b.Name, err)
	}
	opts = tightenBudget(opts, summary)
	faultSeed := s.opts.FaultSeed
	if faultSeed == 0 {
		faultSeed = opts.Seed
	}
	// Salt the schedule per experiment so benchmarks and arms sharing one
	// campaign seed still draw independent fault fates (the same
	// discipline benchSeed applies to noise streams).
	faultSeed ^= experimentSalt(b.Name, opts.Mode)
	// The injector draws only the invocation-level kinds; storage kinds
	// (torn/badrecord/enospc) are realized per journal append by a
	// ChaosFS under the checkpoint store, not per invocation.
	inj := faults.NewInjector(s.opts.Faults.VM(), faultSeed)
	quorum := s.opts.Quorum
	if quorum <= 0 || quorum > opts.Invocations {
		quorum = opts.Invocations
	}

	// The execution substrate: in-process, or watchdogged worker children
	// when isolation is on (with permanent in-process fallback when
	// re-exec is unavailable). The sample set is bit-identical either
	// way — invocations are pure functions of (seed, invocation id) — so
	// the choice never enters the checkpoint key.
	exec := s.newExecutor(po.Workers)
	defer exec.close()

	var par *Parallelism
	parallel := po.Workers > 1
	if parallel {
		var sequential bool
		par, sequential = s.r.runGuard(po)
		parallel = !sequential
	}

	obs := s.r.obs
	spanKV := []string{"benchmark", b.Name, "mode", opts.Mode.String(), "supervised", "true"}
	if parallel {
		spanKV = append(spanKV, "workers", strconv.Itoa(po.Workers))
	}
	benchSpan := obs.Trace.Begin(trace.CatBenchmark, b.Name+"/"+opts.Mode.String(), spanKV...)
	defer benchSpan.End()

	// The checkpoint key deliberately excludes the worker count and guard
	// policy: parallel and sequential runs of one experiment draw the same
	// samples, so either may resume the other's checkpoint.
	key := checkpointKey(b, opts, s.opts, faultSeed)
	slots := make([]*slotRecord, opts.Invocations)
	resumed := 0
	var journalRep *wal.RecoveryReport
	if ckpt != nil {
		restored, rep, err := ckpt.resume(key)
		if err != nil {
			return nil, fmt.Errorf("harness: %s: %w", b.Name, err)
		}
		// Recovery repairs torn tails and corrupt records, never silently
		// trusts them, and the result carries the report.
		journalRep = &rep
		if !rep.Clean() {
			obs.Trace.Instant(trace.CatSupervisor, "journal-recovered",
				"benchmark", b.Name, "report", rep.String())
			obs.Metrics.Counter(mJournalRecoveries,
				"journals repaired (torn tail or corrupt records) on open").Inc()
		}
		for idx, slot := range restored {
			if idx < 0 || idx >= opts.Invocations {
				continue
			}
			slot := slot
			slots[idx] = &slot
			resumed++
		}
		if resumed > 0 {
			obs.Trace.Instant(trace.CatSupervisor, "checkpoint-resume",
				"benchmark", b.Name, "completed", strconv.Itoa(resumed))
			obs.Metrics.Counter(mResumes, "experiments resumed from a checkpoint").Inc()
		}
	}

	var pending []int
	for i := 0; i < opts.Invocations; i++ {
		if slots[i] == nil {
			pending = append(pending, i)
		}
	}

	// completeSlot records one freshly-run slot and appends it to the
	// journal. ckptMu serializes the slots table, the crash-point count and
	// the appends across concurrent shards. Checkpoint failures (ENOSPC,
	// injected storage faults) are survived, not fatal: losing durability
	// must not lose the in-flight work — the run degrades and says so in
	// Supervision.
	var ckptMu sync.Mutex
	var ckptErrs int
	var ckptFirstErr string
	var completed int
	crashed := false
	completeSlot := func(idx int, slot slotRecord) {
		if slot.Log.Status == StatusDropped {
			obs.Trace.Instant(trace.CatSupervisor, "invocation-dropped",
				"benchmark", b.Name, "invocation", strconv.Itoa(idx))
			obs.Metrics.Counter(mDropped, "invocations dropped after exhausting retries").Inc()
		}
		ckptMu.Lock()
		defer ckptMu.Unlock()
		slots[idx] = &slot
		completed++
		if s.opts.CrashAfter > 0 && completed >= s.opts.CrashAfter {
			crashed = true
		}
		if ckpt == nil {
			return
		}
		if err := ckpt.AppendSlot(key, slot); err != nil {
			ckptErrs++
			if ckptFirstErr == "" {
				ckptFirstErr = err.Error()
			}
			obs.Trace.Instant(trace.CatSupervisor, "checkpoint-error",
				"invocation", strconv.Itoa(idx), "error", err.Error())
			obs.Metrics.Counter(mCheckpointErrors,
				"checkpoint/journal writes that failed (run continued)").Inc()
			return
		}
		obs.Trace.Instant(trace.CatSupervisor, "checkpoint-save",
			"invocation", strconv.Itoa(idx))
		obs.Metrics.Counter(mCheckpointSaves, "checkpoint snapshots written").Inc()
	}
	// crashedNow lets shards observe a fired crash point without racing
	// the accounting above.
	crashedNow := func() bool {
		ckptMu.Lock()
		defer ckptMu.Unlock()
		return crashed
	}

	if parallel {
		obs.Metrics.Counter(mParallelRuns, "experiments executed by the sharded runner").Inc()
		s.r.shardPool(len(pending), po.Workers, func(shard, j int) {
			if crashedNow() {
				return
			}
			idx := pending[j]
			completeSlot(idx, s.superviseOne(exec, b, prog, opts, idx, inj,
				"worker", strconv.Itoa(shard)))
		})
	} else {
		for _, idx := range pending {
			if crashedNow() {
				break
			}
			completeSlot(idx, s.superviseOne(exec, b, prog, opts, idx, inj))
		}
	}
	if crashedNow() {
		// Stop abruptly: no checkpoint finalization, no cleanup beyond what
		// a kill -9 would perform. The journal on disk is the only survivor.
		return nil, fmt.Errorf("harness: %s/%s: %w after %d slot completion(s)",
			b.Name, opts.Mode, ErrCrashPoint, s.opts.CrashAfter)
	}

	res := assembleSupervised(b, opts, summary, s.opts, faultSeed, quorum, slots, resumed)
	res.Parallelism = par

	sup := res.Supervision
	sup.Isolation = exec.describe()
	sup.WorkerKills, sup.WorkerRestarts = exec.stats()
	sup.CheckpointErrors = ckptErrs
	sup.CheckpointError = ckptFirstErr
	sup.Journal = journalRep
	s.r.snapshotMetrics(res)
	if sup.EffectiveN() < quorum {
		// The partial result is returned alongside the error so callers
		// can still report *how* the experiment degraded.
		return res, fmt.Errorf(
			"harness: %s/%s: %w: %d of %d invocations succeeded (need %d; %d dropped after %d retries)",
			b.Name, opts.Mode, ErrQuorum, sup.EffectiveN(), sup.Planned, quorum, sup.Dropped, sup.Retries)
	}
	return res, nil
}

// assembleSupervised merges completed slots in canonical invocation order
// into a Result and derives the supervision accounting from the per-slot
// records — the merge step that makes completion order unobservable.
func assembleSupervised(b workloads.Benchmark, opts Options, summary *analysis.Summary,
	so SupervisorOptions, faultSeed uint64, quorum int, slots []*slotRecord, resumed int) *Result {
	res := &Result{Benchmark: b.Name, Mode: opts.Mode, Opts: opts, Analysis: summary}
	sup := &Supervision{
		Planned:     opts.Invocations,
		Quorum:      quorum,
		MaxRetries:  so.MaxRetries,
		Faults:      so.Faults,
		FaultSeed:   faultSeed,
		ResumedFrom: resumed,
	}
	res.Supervision = sup
	for _, slot := range slots {
		if slot == nil {
			continue
		}
		sup.Log = append(sup.Log, slot.Log)
		switch slot.Log.Status {
		case StatusClean:
			sup.Clean++
		case StatusRecovered:
			sup.Recovered++
		case StatusDropped:
			sup.Dropped++
		}
		sup.Attempts += len(slot.Log.Attempts)
		if n := len(slot.Log.Attempts); n > 1 {
			sup.Retries += n - 1
		}
		for _, at := range slot.Log.Attempts {
			if at.Fault != "" {
				sup.InjectedFaults++
			}
		}
		sup.QuarantinedSamples += slot.Quarantined
		if slot.Invocation != nil {
			res.Invocations = append(res.Invocations, *slot.Invocation)
		}
	}
	return res
}

// superviseOne drives one invocation slot through its retry budget and
// returns its complete record. It mutates no shared experiment state, so
// shards run it concurrently; all side effects go through the
// concurrency-safe observability sinks.
func (s *Supervisor) superviseOne(exec invocationExecutor, b workloads.Benchmark,
	prog *vm.Program, opts Options, invIdx int, inj *faults.Injector, spanKV ...string) slotRecord {
	obs := s.r.obs
	slot := slotRecord{Index: invIdx, Log: InvocationLog{Index: invIdx, Status: StatusDropped}}
	for attempt := 0; attempt <= s.opts.MaxRetries; attempt++ {
		fault := inj.Draw(invIdx, attempt, opts.Iterations)
		if attempt > 0 {
			obs.Trace.Instant(trace.CatSupervisor, "retry",
				"benchmark", b.Name, "invocation", strconv.Itoa(invIdx),
				"attempt", strconv.Itoa(attempt))
			obs.Metrics.Counter(mRetries, "invocation retry attempts").Inc()
		}
		rec := AttemptRecord{Attempt: attempt}
		if fault.Kind != faults.None {
			rec.Fault = fault.Kind.String()
			obs.Trace.Instant(trace.CatSupervisor, "fault-injected",
				"kind", fault.Kind.String(), "invocation", strconv.Itoa(invIdx),
				"attempt", strconv.Itoa(attempt))
			obs.Metrics.Counter(mFaultsInjected, "faults injected into attempts").Inc()
		}
		inv, err := s.attempt(exec, b, prog, opts, invIdx, attempt, fault, spanKV...)
		if err == nil {
			var quarantined int
			quarantined, err = validateSamples(inv)
			slot.Quarantined += quarantined
			obs.Metrics.Counter(mQuarantined, "corrupted samples quarantined").
				Add(uint64(quarantined))
		}
		if err == nil {
			err = validateChecksum(b, inv)
		}
		if err == nil {
			slot.Log.Attempts = append(slot.Log.Attempts, rec)
			if attempt == 0 {
				slot.Log.Status = StatusClean
			} else {
				slot.Log.Status = StatusRecovered
			}
			slot.Invocation = inv
			return slot
		}
		rec.Error = err.Error()
		obs.Trace.Instant(trace.CatSupervisor, "attempt-failed",
			"benchmark", b.Name, "invocation", strconv.Itoa(invIdx),
			"attempt", strconv.Itoa(attempt), "error", err.Error())
		if attempt < s.opts.MaxRetries {
			backoff := jitterBackoff(s.opts.BackoffBase, s.opts.BackoffMax,
				inj.Seed(), invIdx, attempt)
			rec.BackoffMs = backoff.Milliseconds()
			if s.opts.RealBackoff {
				time.Sleep(backoff)
			}
		}
		slot.Log.Attempts = append(slot.Log.Attempts, rec)
	}
	return slot
}

// attempt runs a single isolated invocation attempt through the executor.
// Panics — injected or genuine engine bugs — are recovered and converted
// into ordinary attempt failures, so one bad invocation can never take the
// campaign down (a child-process crash never even reaches this process;
// the executor reports it as an error).
func (s *Supervisor) attempt(exec invocationExecutor, b workloads.Benchmark,
	prog *vm.Program, opts Options, invIdx, attempt int,
	fault faults.Fault, spanKV ...string) (inv *Invocation, err error) {
	defer func() {
		if r := recover(); r != nil {
			inv, err = nil, fmt.Errorf("invocation panicked: %v", r)
		}
	}()

	noiseIdx := invIdx
	if attempt > 0 {
		noiseIdx = invIdx + attempt*retrySalt
	}
	switch fault.Kind {
	case faults.CompileError:
		return nil, fmt.Errorf("faults: injected transient compile error")
	case faults.Panic:
		panic(fmt.Sprintf("faults: injected panic (invocation %d, attempt %d)", invIdx, attempt))
	case faults.Hang:
		// Shrink the step budget to the point where the VM's own guard
		// must fire, simulating a hung invocation being reaped.
		o := opts
		o.MaxStepsPerInvocation = hangBudgetSteps
		return exec.run(b, prog, o, noiseIdx, workerSabotage{}, spanKV...)
	case faults.ChildKill:
		// The child dies abruptly mid-attempt (in-process: the attempt is
		// aborted with the same fate).
		return exec.run(b, prog, opts, noiseIdx, workerSabotage{Exit: true}, spanKV...)
	case faults.Stall:
		// The child livelocks until the watchdog reaps it (in-process:
		// degraded to the budget-guard hang realization).
		return exec.run(b, prog, opts, noiseIdx, workerSabotage{Stall: true}, spanKV...)
	}
	inv, err = exec.run(b, prog, opts, noiseIdx, workerSabotage{}, spanKV...)
	if err != nil {
		return nil, err
	}
	switch fault.Kind {
	case faults.CorruptSample:
		if fault.Iteration < len(inv.TimesSec) {
			inv.TimesSec[fault.Iteration] = math.NaN()
		}
	case faults.WrongChecksum:
		inv.Checksum = "corrupted:" + inv.Checksum
	}
	return inv, nil
}

// validateSamples scans an invocation's measurements for corrupted values
// (NaN, infinite, or non-positive times). A corrupted attempt is discarded
// whole — partial invocations would unbalance the two-level design the
// statistics assume — and the bad-sample count is surfaced as quarantined.
func validateSamples(inv *Invocation) (quarantined int, err error) {
	for _, ts := range inv.TimesSec {
		if math.IsNaN(ts) || math.IsInf(ts, 0) || ts <= 0 {
			quarantined++
		}
	}
	if quarantined > 0 {
		return quarantined, fmt.Errorf("%d corrupted sample(s) quarantined", quarantined)
	}
	return 0, nil
}

// RunPair is the supervised analogue of Runner.RunPair: both arms run
// under the same policy, failures are labelled with benchmark and arm, and
// cross-engine checksum agreement is validated on the surviving
// invocations.
func (s *Supervisor) RunPair(b workloads.Benchmark, opts Options) (interp, jit *Result, err error) {
	return s.RunPairParallel(b, opts, ParallelOptions{})
}

// RunPairParallel is RunPair with each arm executed by the sharded runner
// (arms still run one after the other — the comparison design wants the
// arms' samples, not the arms themselves, interleaved).
func (s *Supervisor) RunPairParallel(b workloads.Benchmark, opts Options, po ParallelOptions) (interp, jit *Result, err error) {
	base := s.opts.Checkpoint
	oi := opts
	oi.Mode = vm.ModeInterp
	interp, err = s.runWith(b, oi, base.Derive("interp"), po)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: %s [interp arm]: %w", b.Name, err)
	}
	oj := opts
	oj.Mode = vm.ModeJIT
	jit, err = s.runWith(b, oj, base.Derive("jit"), po)
	if err != nil {
		return nil, nil, fmt.Errorf("harness: %s [jit arm]: %w", b.Name, err)
	}
	if err := pairChecksumError(b.Name, interp, jit); err != nil {
		return nil, nil, err
	}
	return interp, jit, nil
}
