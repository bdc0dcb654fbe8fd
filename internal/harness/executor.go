package harness

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"strconv"
	"sync"
	"time"

	"repro/internal/procexec"
	"repro/internal/trace"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// IsolationOptions configures subprocess worker isolation: each invocation
// attempt executes in a child process (the `pybench -worker` re-exec mode)
// so a crash, native hang, or runaway allocation takes down one attempt,
// not the campaign. The zero value keeps execution in-process.
type IsolationOptions struct {
	// Enabled shells invocations out to worker children.
	Enabled bool
	// Command is the worker argv. Empty means re-exec the current binary
	// with "-worker" appended — the production configuration.
	Command []string
	// Env entries are appended to each worker's environment.
	Env []string
	// Watchdog is the hard per-invocation deadline after which a child is
	// SIGKILLed (default 30s). This is the supervisor-side defense that
	// in-VM step/wall budgets cannot provide: it reaps a child that hangs
	// outside the VM's own control flow.
	Watchdog time.Duration
}

func (io IsolationOptions) withDefaults() IsolationOptions {
	if io.Watchdog <= 0 {
		io.Watchdog = 30 * time.Second
	}
	return io
}

// command resolves the worker argv, defaulting to self-re-exec.
func (io IsolationOptions) command() ([]string, error) {
	if len(io.Command) > 0 {
		return io.Command, nil
	}
	exe, err := os.Executable()
	if err != nil {
		return nil, fmt.Errorf("resolving own executable for re-exec: %w", err)
	}
	return []string{exe, "-worker"}, nil
}

// invocationExecutor abstracts where an invocation attempt physically
// runs: in this process or in a policed child. The supervisor's retry,
// quarantine, and checkpoint logic is identical either way.
type invocationExecutor interface {
	// run executes one attempt. sab carries injected environment faults.
	run(b workloads.Benchmark, prog *vm.Program, opts Options, noiseIdx int,
		sab workerSabotage, spanKV ...string) (*Invocation, error)
	// describe reports the substrate for Supervision.Isolation.
	describe() string
	// stats returns (kills, restarts) — child deaths observed and fresh
	// children spawned to replace them. Zero for in-process execution.
	stats() (kills, restarts int)
	// close releases any worker children.
	close()
}

// inProcExecutor is the historical path: the attempt runs in this process
// under recover()-based panic isolation. Injected environment faults are
// degraded to their nearest in-process analogue so a fault schedule drawn
// for an isolated run produces the same attempt fates without isolation.
type inProcExecutor struct {
	r *Runner
	// note is the Supervision.Isolation label ("in-process", or the
	// fallback explanation when subprocess isolation was requested but
	// unavailable).
	note string
}

func (e *inProcExecutor) run(b workloads.Benchmark, prog *vm.Program, opts Options,
	noiseIdx int, sab workerSabotage, spanKV ...string) (*Invocation, error) {
	switch {
	case sab.Exit:
		return nil, errors.New("faults: injected worker kill (in-process: attempt aborted)")
	case sab.Stall:
		// Degrade to the hang realization: the VM's own budget guard
		// aborts the attempt, standing in for the watchdog.
		o := opts
		o.MaxStepsPerInvocation = hangBudgetSteps
		return e.r.runInvocation(prog, o, noiseIdx, spanKV...)
	}
	return e.r.runInvocation(prog, opts, noiseIdx, spanKV...)
}

func (e *inProcExecutor) describe() string  { return e.note }
func (e *inProcExecutor) stats() (int, int) { return 0, 0 }
func (e *inProcExecutor) close()            {}

// subprocExecutor runs attempts in worker children. A bounded pool of
// clients (at most one per shard) is reused across attempts; any failure
// poisons the failing client, and the next attempt spawns a replacement.
// If spawning ever fails outright — re-exec unavailable, binary gone —
// the executor degrades permanently to in-process execution and records
// why, so a campaign never dies for lack of isolation.
type subprocExecutor struct {
	r       *Runner
	iso     IsolationOptions
	command []string
	idle    chan *procexec.Client

	mu       sync.Mutex
	spawned  int
	kills    int
	restarts int
	fellBack bool
	reason   string
	inproc   *inProcExecutor
}

// newSubprocExecutor builds the pool. capacity bounds concurrently-live
// children (one per shard).
func newSubprocExecutor(r *Runner, iso IsolationOptions, capacity int) (*subprocExecutor, error) {
	cmd, err := iso.command()
	if err != nil {
		return nil, err
	}
	if capacity < 1 {
		capacity = 1
	}
	return &subprocExecutor{
		r:       r,
		iso:     iso,
		command: cmd,
		idle:    make(chan *procexec.Client, capacity),
	}, nil
}

func (e *subprocExecutor) describe() string {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fellBack {
		return "in-process (isolation fallback: " + e.reason + ")"
	}
	return "subprocess"
}

func (e *subprocExecutor) stats() (int, int) {
	e.mu.Lock()
	defer e.mu.Unlock()
	return e.kills, e.restarts
}

// fallBack flips the executor to in-process execution permanently.
func (e *subprocExecutor) fallBack(reason string) *inProcExecutor {
	e.mu.Lock()
	defer e.mu.Unlock()
	if !e.fellBack {
		e.fellBack = true
		e.reason = reason
		e.inproc = &inProcExecutor{r: e.r}
		e.r.obs.Trace.Instant(trace.CatSupervisor, "isolation-fallback", "reason", reason)
		e.r.obs.Metrics.Counter(mIsolationFallbacks,
			"campaigns degraded from subprocess to in-process execution").Inc()
	}
	return e.inproc
}

// fallenBack returns the in-process executor if degradation happened.
func (e *subprocExecutor) fallenBack() *inProcExecutor {
	e.mu.Lock()
	defer e.mu.Unlock()
	if e.fellBack {
		return e.inproc
	}
	return nil
}

// take returns an idle client or spawns a fresh one.
func (e *subprocExecutor) take() (*procexec.Client, error) {
	select {
	case c := <-e.idle:
		return c, nil
	default:
	}
	c, err := procexec.Start(procexec.Config{
		Command:  e.command,
		Env:      e.iso.Env,
		Watchdog: e.iso.Watchdog,
	})
	if err != nil {
		return nil, err
	}
	e.mu.Lock()
	e.spawned++
	respawn := e.spawned > cap(e.idle) // replacing a dead child, not first spawn
	if respawn {
		e.restarts++
	}
	e.mu.Unlock()
	ev := "worker-spawn"
	if respawn {
		ev = "worker-restart"
	}
	e.r.obs.Trace.Instant(trace.CatSupervisor, ev, "pid", strconv.Itoa(c.Pid()))
	e.r.obs.Metrics.Counter(mWorkerSpawns, "worker children spawned").Inc()
	return c, nil
}

func (e *subprocExecutor) run(b workloads.Benchmark, prog *vm.Program, opts Options,
	noiseIdx int, sab workerSabotage, spanKV ...string) (*Invocation, error) {
	if ip := e.fallenBack(); ip != nil {
		return ip.run(b, prog, opts, noiseIdx, sab, spanKV...)
	}
	c, err := e.take()
	if err != nil {
		// Isolation is unavailable; degrade rather than fail the attempt.
		return e.fallBack(err.Error()).run(b, prog, opts, noiseIdx, sab, spanKV...)
	}
	// The child process has no trace sink, so its invocation/iteration spans
	// are lost across the pipe; mirror the invocation span here so isolated
	// timelines keep per-invocation structure. (Begun only once a worker is
	// secured — the fallback path above emits its own span in-process.)
	var invSpan trace.Span
	if tr := e.r.obs.Trace; tr != nil {
		kv := append([]string{"index", strconv.Itoa(noiseIdx), "substrate", "subprocess"}, spanKV...)
		invSpan = tr.Begin(trace.CatInvocation, fmt.Sprintf("invocation %d", noiseIdx), kv...)
	}
	defer invSpan.End()
	req, err := json.Marshal(workerRequest{
		Benchmark: b.Name, Opts: opts, NoiseIdx: noiseIdx, Sabotage: sab,
	})
	if err != nil {
		e.idle <- c
		return nil, fmt.Errorf("encoding worker request: %w", err)
	}
	raw, err := c.Call(req)
	if err != nil {
		// The client killed and reaped the child (watchdog or death); it
		// is poisoned and not returned to the pool.
		e.mu.Lock()
		e.kills++
		e.mu.Unlock()
		e.r.obs.Trace.Instant(trace.CatSupervisor, "worker-kill",
			"benchmark", b.Name, "error", err.Error())
		e.r.obs.Metrics.Counter(mWorkerKills,
			"worker children killed by the watchdog or found dead").Inc()
		return nil, err
	}
	e.idle <- c
	var resp workerResponse
	if err := json.Unmarshal(raw, &resp); err != nil {
		return nil, fmt.Errorf("decoding worker response: %w", err)
	}
	if resp.Error != "" {
		return nil, errors.New(resp.Error)
	}
	if resp.Invocation == nil {
		return nil, errors.New("worker returned neither invocation nor error")
	}
	return resp.Invocation, nil
}

func (e *subprocExecutor) close() {
	for {
		select {
		case c := <-e.idle:
			//benchlint:allow uncheckederr — discarding the worker either way
			c.Close()
		default:
			return
		}
	}
}
