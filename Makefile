GO ?= go
SMOKEDIR ?= .smoke
GATEDIR ?= .gate
TRACKDIR ?= .track
DAEMONDIR ?= .daemon-smoke
# Pinned configuration of the committed perf-gate baseline
# (cmd/benchgate/testdata/baseline.json). Regenerating the baseline and
# gating a candidate must use the exact same knobs, or the comparison is
# between different experiments.
GATE_BENCH = fib
GATE_FLAGS = -bench $(GATE_BENCH) -invocations 6 -iterations 10 -seed 42 -noise quiet -json

.PHONY: all build test lint verify bench bench-smoke bench-gate bench-go bench-go-baseline bench-track chaos-soak daemon-smoke clean

# Pinned configuration of the wall-clock VM microbenchmarks. BENCH_vm.json
# is the committed register-tier baseline; bench-go compares a fresh run
# against it. ns/op deltas are informational (host-dependent), but
# allocs_per_op and bytes_per_op are gated: memory behavior is
# host-independent, so growth past both the relative and absolute floors
# fails the target.
BENCHGO_PKGS = ./internal/vm
BENCHGO_FLAGS = -run '^$$' -bench . -benchmem -benchtime 1s -count 3
BENCHGO_MEMGATE = -max-alloc-growth 10 -max-bytes-growth 25

all: build

build:
	$(GO) build ./...

test:
	$(GO) test ./...

# lint runs go vet plus benchlint, the repo's own methodology vet pass
# (sanctioned clock sites, allocation-free hot paths, no global rand), and
# lints every shipped MiniPy workload with the static-analysis subsystem.
lint:
	$(GO) vet ./...
	$(GO) run ./cmd/benchlint ./cmd ./internal ./examples
	$(GO) run ./cmd/pybench -lint > /dev/null

# verify is the pre-merge gate: static analysis plus the full test suite
# under the race detector (the harness and supervisor are concurrent).
verify: lint
	$(GO) test -race ./...

bench:
	$(GO) test -bench=. -benchmem

# bench-go runs the wall-clock interpreter microkernels (dispatch, call,
# attribute, global-lookup, iteration, probe-entry), prints per-benchmark
# ns/op deltas vs. the committed BENCH_vm.json baseline, and fails if any
# kernel's allocs/op or B/op grew past the memory gate — the register
# tier's unboxing win is locked in by this target.
bench-go:
	$(GO) test $(BENCHGO_PKGS) $(BENCHGO_FLAGS) | \
		$(GO) run ./cmd/benchjson -baseline BENCH_vm.json $(BENCHGO_MEMGATE)

# bench-go-baseline regenerates BENCH_vm.json from the current tree with
# stamped provenance (commit, branch, go version, timestamp). Only run
# this deliberately: the committed file is the anchor that future PRs
# measure against.
bench-go-baseline:
	$(GO) test $(BENCHGO_PKGS) $(BENCHGO_FLAGS) | $(GO) run ./cmd/benchjson -out BENCH_vm.json

# bench-smoke runs one tiny supervised benchmark end to end with tracing and
# metrics on, then validates that the emitted Chrome trace JSON parses.
bench-smoke:
	rm -rf $(SMOKEDIR) && mkdir -p $(SMOKEDIR)
	$(GO) run ./cmd/pybench -bench fib -mode interp \
		-invocations 2 -iterations 3 -seed 42 -noise quiet \
		-retries 2 -faults light \
		-trace $(SMOKEDIR)/smoke.trace.json -metrics > $(SMOKEDIR)/smoke.out
	$(GO) run ./cmd/tracecheck $(SMOKEDIR)/smoke.trace.json
	grep -q harness_invocations_total $(SMOKEDIR)/smoke.out
	rm -rf $(SMOKEDIR)

# bench-gate exercises the CI perf-regression gate end to end:
#   1. a fresh run of the pinned-seed experiment — sequentially, with 4
#      worker shards, and under process isolation — must be bit-identical
#      to the committed baseline (simulated times are host-independent, so
#      this holds on any machine); the sharded run also writes its trace;
#   2. benchgate must pass the fresh candidate against the baseline;
#   3. benchgate must FAIL (non-zero) on the committed 20%-slowdown fixture.
# The scratch dir is removed only on success, so a failing CI run can
# upload it.
bench-gate:
	rm -rf $(GATEDIR) && mkdir -p $(GATEDIR)
	$(GO) run ./cmd/pybench $(GATE_FLAGS) > $(GATEDIR)/seq.json
	$(GO) run ./cmd/pybench $(GATE_FLAGS) -workers 4 -parallel-policy force \
		-trace $(GATEDIR)/par.trace.json > $(GATEDIR)/par.json
	$(GO) run ./cmd/benchgate -baseline cmd/benchgate/testdata/baseline.json \
		-candidate $(GATEDIR)/seq.json -equivalence
	$(GO) run ./cmd/benchgate -baseline $(GATEDIR)/seq.json \
		-candidate $(GATEDIR)/par.json -equivalence
	$(GO) run ./cmd/pybench $(GATE_FLAGS) -isolate > $(GATEDIR)/iso.json
	$(GO) run ./cmd/benchgate -baseline $(GATEDIR)/seq.json \
		-candidate $(GATEDIR)/iso.json -equivalence
	$(GO) run ./cmd/benchgate -baseline cmd/benchgate/testdata/baseline.json \
		-candidate $(GATEDIR)/seq.json
	! $(GO) run ./cmd/benchgate -baseline cmd/benchgate/testdata/baseline.json \
		-candidate cmd/benchgate/testdata/slow20.json
	rm -rf $(GATEDIR)

# bench-track exercises the longitudinal tracking pipeline end to end on a
# scratch copy of the committed history (the committed BENCH_history.jsonl
# is an anchor, never mutated by CI):
#   1. a fresh run of the pinned-seed experiment is ingested — simulated
#      times are host-independent, so it extends the committed series with
#      an identical value and the trend stays flat;
#   2. `benchtrack report` fails the target on any fresh (unacknowledged)
#      regression alert; the JSON trend report is written first so CI can
#      upload it as an artifact even when the gate fails;
#   3. benchgate cross-references the longitudinal trend next to its
#      two-snapshot verdict.
bench-track:
	rm -rf $(TRACKDIR) && mkdir -p $(TRACKDIR)
	cp BENCH_history.jsonl $(TRACKDIR)/history.jsonl
	$(GO) run ./cmd/pybench $(GATE_FLAGS) > $(TRACKDIR)/run.json
	$(GO) run ./cmd/benchtrack ingest -history $(TRACKDIR)/history.jsonl \
		$(TRACKDIR)/run.json
	-$(GO) run ./cmd/benchtrack report -history $(TRACKDIR)/history.jsonl \
		-json > $(TRACKDIR)/trend.json
	$(GO) run ./cmd/benchtrack report -history $(TRACKDIR)/history.jsonl \
		-trace $(TRACKDIR)/track.trace.json -metrics
	$(GO) run ./cmd/tracecheck $(TRACKDIR)/track.trace.json
	$(GO) run ./cmd/benchtrack summary -history $(TRACKDIR)/history.jsonl \
		-bench $(GATE_BENCH)
	$(GO) run ./cmd/benchgate -baseline cmd/benchgate/testdata/baseline.json \
		-candidate $(TRACKDIR)/run.json -history $(TRACKDIR)/history.jsonl

# daemon-smoke exercises benchmarking-as-a-service end to end: build the
# real pybench and pybenchd binaries, start the daemon on a loopback port,
# submit a two-benchmark campaign through the Go client, stream it to
# completion, and assert the sample sets are bit-identical to one-shot
# `pybench -json` runs — then kill -9 the daemon mid-campaign (via the
# -chaos-crash-after hook), restart it, and assert the resumed campaign
# converges to the same bits. Daemon logs and traces land in $(DAEMONDIR)
# so CI can upload them when the gate fails.
daemon-smoke:
	rm -rf $(DAEMONDIR) && mkdir -p $(DAEMONDIR)
	PYBENCHD_SMOKE=1 PYBENCHD_SMOKE_ARTIFACTS=$(abspath $(DAEMONDIR)) \
		$(GO) test -count 1 -run TestDaemonSmoke -v ./cmd/pybenchd

# chaos-soak runs the crash-only invariant over a pinned seed matrix: one
# fault family per seed (worker kills / torn+corrupt journal writes /
# stalled children), each at 1 and 4 worker shards, every round interrupted
# by deliberate supervisor crashes with resume-from-journal. benchchaos
# exits non-zero the moment a merged sample set differs from the fault-free
# reference run, so this target is a hard CI gate, not a statistics check.
CHAOS_FLAGS = -bench fib -invocations 8 -iterations 5 -retries 8 -watchdog 2s

chaos-soak:
	$(GO) run ./cmd/benchchaos $(CHAOS_FLAGS) -seed 42 -faults 'kill=0.35' -crashes 2 -workers 1
	$(GO) run ./cmd/benchchaos $(CHAOS_FLAGS) -seed 42 -faults 'kill=0.35' -crashes 2 -workers 4
	$(GO) run ./cmd/benchchaos $(CHAOS_FLAGS) -seed 43 -faults 'torn=0.3,badrecord=0.15,enospc=0.05' -crashes 3 -workers 1
	$(GO) run ./cmd/benchchaos $(CHAOS_FLAGS) -seed 43 -faults 'torn=0.3,badrecord=0.15,enospc=0.05' -crashes 3 -workers 4
	$(GO) run ./cmd/benchchaos $(CHAOS_FLAGS) -seed 44 -faults 'stall=0.25' -crashes 2 -workers 1
	$(GO) run ./cmd/benchchaos $(CHAOS_FLAGS) -seed 44 -faults 'stall=0.25' -crashes 2 -workers 4

# clean removes every scratch directory any target or CI job can leave
# behind: the named scratch dirs, the daemon's default data dir, and the
# timestamped .smoke-*/.race-artifacts/.gate-artifacts dirs CI creates
# when it keeps failure artifacts.
clean:
	$(GO) clean ./...
	rm -rf $(SMOKEDIR) $(GATEDIR) $(TRACKDIR) $(DAEMONDIR) .pybenchd
	rm -rf .smoke-* .race-artifacts .gate-artifacts
