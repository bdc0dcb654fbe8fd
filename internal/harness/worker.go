package harness

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"time"

	"repro/internal/procexec"
	"repro/internal/workloads"
)

// The worker protocol: the supervisor shells each invocation out to a
// child process running WorkerMain (reached via the hidden `pybench
// -worker` re-exec mode). Requests and responses are JSON payloads inside
// procexec frames. The child executes runInvocation with exactly the same
// pure inputs — (benchmark, options, noise index) — the in-process path
// would use, so an isolated run's sample set is bit-identical to an
// in-process run; Go's JSON encoder emits float64s at round-trip
// precision, and benchgate -equivalence holds the proof.

// workerRequest is one invocation order sent to a worker child.
type workerRequest struct {
	// Benchmark names the workload (resolved via workloads.ByName in the
	// child, which compiles it through its own cache).
	Benchmark string
	// Opts is the full experiment configuration of the invocation.
	Opts Options
	// NoiseIdx is the noise-stream invocation id (retry-salted by the
	// supervisor; the child never knows about attempts).
	NoiseIdx int
	// Sabotage carries injected environment faults for the child to
	// realize against itself (zero in production).
	Sabotage workerSabotage `json:",omitempty"`
}

// workerSabotage realizes injected environment faults inside the child:
// the supervisor's chaos schedule decides, the child executes the damage
// against itself, and the supervisor's recovery machinery — the code under
// test — sees exactly what a real crash or livelock produces.
type workerSabotage struct {
	// Exit makes the child terminate abruptly without replying (the
	// injected-kill fault; indistinguishable from a segfault upstream).
	Exit bool `json:",omitempty"`
	// Stall makes the child block until the supervisor's watchdog
	// SIGKILLs it (the injected-livelock fault).
	Stall bool `json:",omitempty"`
}

// workerResponse is the child's reply to one request.
type workerResponse struct {
	Invocation *Invocation `json:",omitempty"`
	Error      string      `json:",omitempty"`
}

// killedExitCode is the status a sabotaged child exits with. Chosen to be
// distinct from the CLI taxonomy so a worker corpse is never mistaken for
// a benchgate verdict.
const killedExitCode = 42

// WorkerMain is the body of the hidden `pybench -worker` mode: it serves
// invocation requests over the procexec protocol until the supervisor
// closes stdin. The worker is stateless between campaigns — its only
// cross-request state is the compiled-code cache, which is semantically
// invisible (compilation is deterministic).
func WorkerMain(r io.Reader, w io.Writer) error {
	runner := NewRunner()
	return procexec.Serve(r, w, func(req []byte) []byte {
		resp := serveInvocation(runner, req)
		out, err := json.Marshal(resp)
		if err != nil {
			out, _ = json.Marshal(workerResponse{
				Error: fmt.Sprintf("worker: encoding response: %v", err)})
		}
		return out
	})
}

// serveInvocation executes one request, converting panics and errors into
// response payloads (the supervisor owns retry policy, not the worker).
func serveInvocation(runner *Runner, raw []byte) (resp workerResponse) {
	defer func() {
		if p := recover(); p != nil {
			resp = workerResponse{Error: fmt.Sprintf("worker: invocation panicked: %v", p)}
		}
	}()
	var req workerRequest
	if err := json.Unmarshal(raw, &req); err != nil {
		return workerResponse{Error: fmt.Sprintf("worker: decoding request: %v", err)}
	}
	if req.Sabotage.Exit {
		// Die without replying: the supervisor sees a broken pipe, exactly
		// as if the VM had segfaulted.
		os.Exit(killedExitCode)
	}
	if req.Sabotage.Stall {
		// Block until the watchdog reaps us. The sleep is effectively
		// infinite; SIGKILL is the only way out, by design.
		time.Sleep(24 * time.Hour)
	}
	b, ok := workloads.ByName(req.Benchmark)
	if !ok {
		return workerResponse{Error: fmt.Sprintf("worker: unknown benchmark %q", req.Benchmark)}
	}
	prog, _, err := runner.compiled(b, req.Opts.Opt)
	if err != nil {
		return workerResponse{Error: fmt.Sprintf("worker: compiling %s: %v", req.Benchmark, err)}
	}
	inv, err := runner.runInvocation(prog, req.Opts, req.NoiseIdx)
	if err != nil {
		return workerResponse{Error: err.Error()}
	}
	return workerResponse{Invocation: inv}
}
