// Command ledgerbench is the repository's end-to-end and per-layer
// benchmark, the layer ledger. It runs one of four workloads at a seed and
// prints every metric by name with its unit, then one JSON result line:
//
//	go run . --workload campaign --seed 1 --seconds 20 --trace 0
//
// With --trace 0 it measures the workload through the program's public
// surface (controlapi.Execute, harness.Runner.Run, core.Engine.Experiment,
// or an in-process daemon driven by the typed client) and reports the
// end-to-end metrics. With --trace 1 it runs one untraced reference round
// and then repeats the same work through the layers' public entry points
// under the benchmark's own span recorder, and reports per-layer metrics,
// the tracing overhead and the share of the traced time no layer covers.
// README.md lists the workloads and metrics.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"runtime"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/metrics"
	"repro/internal/workloads"
)

// unattributedTolerance bounds trace.unattributed_frac: a traced run whose
// layer self times leave more than this share of the traced time
// uncovered fails.
const unattributedTolerance = 0.05

// setupRepeats is how many times a run sets up; setup_s is the median.
const setupRepeats = 21

type config struct {
	workload    string
	seed        uint64
	seconds     float64
	trace       bool
	short       bool
	badChecksum bool
	stateDir    string
	commit      string
}

func main() { os.Exit(run(os.Args[1:], os.Stdout, os.Stderr)) }

// run executes one benchmark run and returns the exit code: 0 when every
// output was correct, 1 on a wrong output or failed operation, 2 on bad
// arguments, 3 when the run could not be set up.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("ledgerbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var cfg config
	var traceFlag int
	fs.StringVar(&cfg.workload, "workload", "", "workload: "+strings.Join(workloadNames(), ", "))
	fs.Uint64Var(&cfg.seed, "seed", 1, "seed every generated input derives from")
	fs.Float64Var(&cfg.seconds, "seconds", 20, "how long to measure")
	fs.IntVar(&traceFlag, "trace", 0, "1 = traced per-layer run, 0 = end-to-end run")
	fs.BoolVar(&cfg.short, "short", false, "shrink every workload's design (tests)")
	fs.BoolVar(&cfg.badChecksum, "inject-bad-checksum", false, "corrupt one expected checksum, to show the check fires")
	fs.StringVar(&cfg.stateDir, "state", ".bench_build/state", "directory for stored digests and daemon data")
	fs.StringVar(&cfg.commit, "commit", "", "commit stamped on the result")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	newW, ok := workloadByName(cfg.workload)
	if !ok || traceFlag < 0 || traceFlag > 1 || cfg.seconds <= 0 {
		fmt.Fprintf(stderr, "ledgerbench: need --workload (%s), --seconds > 0 and --trace 0|1\n",
			strings.Join(workloadNames(), ", "))
		return 2
	}
	cfg.trace = traceFlag == 1
	if err := os.MkdirAll(cfg.stateDir, 0o755); err != nil {
		fmt.Fprintf(stderr, "ledgerbench: %v\n", err)
		return 3
	}
	fmt.Fprintf(stdout, "ledgerbench workload=%s seed=%d seconds=%g trace=%d short=%v\n",
		cfg.workload, cfg.seed, cfg.seconds, traceFlag, cfg.short)
	fmt.Fprintf(stdout, "stamp %s\n", stampJSON(cfg.commit))

	expected := expectedChecksums(cfg.badChecksum)
	b := &bench{cfg: cfg, w: newW(cfg, expected), out: stdout, log: stderr, expected: expected}
	metrics, err := b.measure()
	if err != nil {
		fmt.Fprintf(stderr, "ledgerbench: %s: %v\n", cfg.workload, err)
		return 3
	}
	correct := b.failed == 0
	fmt.Fprintf(stdout, "metric error_rate %.6g ratio (failed %d of %d attempted)\n",
		float64(b.failed)/float64(max(b.attempted, 1)), b.failed, b.attempted)
	line, _ := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{correct, b.attempted, b.failed, metrics})
	fmt.Fprintf(stdout, "%s\n", line)
	if !correct {
		return 1
	}
	return 0
}

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// A workload is one named mix of work. The framework times setUp, then
// repeats round until the run's time is spent; a traced run replays one
// round through the layers' public entry points instead.
type workload interface {
	// setUp builds the state the timed section needs. It is called
	// setupRepeats times; each call replaces the previous state.
	setUp() error
	tearDown()
	// round runs the fixed unit of work through the program's public
	// surface.
	round() roundOut
	// replay repeats round's work under tr through the layers' entry
	// points; prepare runs first, outside the reconciled section.
	prepare(tr *tracer) error
	replay(tr *tracer) roundOut
	// finish runs checks that belong outside the timed section, given the
	// digest of every unit the run produced.
	finish(b *bench, digests map[string]string, tr *tracer)
	// layerMetrics adds the workload-specific per-layer values.
	layerMetrics(tr *tracer, l *ledger, m map[string]float64)
}

// observable is a workload whose harness runner the benchmark owns, so a
// traced run can attach the harness's own metrics observer to it.
type observable interface {
	observe(harness.Observer)
}

// roundOut is what one round produced.
type roundOut struct {
	units     []unit
	latencies []latency // one per request
	iters     int       // measured harness iterations completed
	attempted int
	failed    int
	errs      []string
}

// latency is one request's time from request to result, in seconds, under
// the key of the work it did.
type latency struct {
	key string
	sec float64
}

// unit is one result of a round under a key that names the work (a
// benchmark × mode, an experiment, a daemon spec). Units with the same key
// must be bit-identical.
type unit struct {
	key     string
	results []*harness.Result
	output  string
}

func (u unit) digest() string {
	d := newDigester()
	d.str(u.key)
	d.results(u.results)
	d.str(u.output)
	return d.sum()
}

// bench drives one run and keeps its correctness tally.
type bench struct {
	cfg       config
	w         workload
	out, log  io.Writer
	expected  map[string]string
	attempted int
	failed    int
	digests   map[string]string
	ref       *reference
}

// check counts one verification and logs it when it fails.
func (b *bench) check(ok bool, format string, args ...any) {
	b.attempted++
	if !ok {
		b.failed++
		fmt.Fprintf(b.log, "ledgerbench: check failed: "+format+"\n", args...)
	}
}

// absorb tallies a round's operations and verifies its units: every
// checksum against the workload's hand-written expectation, and every
// unit against earlier units of the same key.
func (b *bench) absorb(o roundOut) {
	b.attempted += o.attempted
	b.failed += o.failed
	for _, e := range o.errs {
		fmt.Fprintf(b.log, "ledgerbench: %s\n", e)
	}
	for _, u := range o.units {
		for _, r := range u.results {
			want, ok := b.expected[r.Benchmark]
			for i, inv := range r.Invocations {
				b.check(!ok || want == "" || inv.Checksum == want,
					"%s: %s invocation %d checksum %s, want %s", u.key, r.Benchmark, i, inv.Checksum, want)
			}
		}
		d := u.digest()
		if old, seen := b.digests[u.key]; seen {
			b.check(old == d, "%s: sample set differs from an earlier round (%s vs %s)", u.key, d, old)
		} else {
			b.digests[u.key] = d
		}
	}
}

// runDigest is one digest of every unit the run produced.
func (b *bench) runDigest() string {
	keys := make([]string, 0, len(b.digests))
	for k := range b.digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	d := newDigester()
	for _, k := range keys {
		d.str(k)
		d.str(b.digests[k])
	}
	return d.sum()
}

type timedRound struct {
	wall  time.Duration
	alloc uint64
	out   roundOut
}

func (b *bench) timeRound(fn func() roundOut) timedRound {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	out := fn()
	wall := time.Since(t0)
	runtime.ReadMemStats(&m1)
	b.absorb(out)
	return timedRound{wall: wall, alloc: m1.TotalAlloc - m0.TotalAlloc, out: out}
}

// measure sets up, runs the timed (or traced) section, checks digests and
// returns the metrics for the JSON line.
func (b *bench) measure() (map[string]metric, error) {
	b.digests = map[string]string{}
	var err error
	// Of the workloads, only the daemon makes its writes durable.
	durableDir := ""
	if _, ok := b.w.(*daemonWorkload); ok {
		durableDir = b.cfg.stateDir
	}
	if b.ref, err = newReference(durableDir); err != nil {
		return nil, fmt.Errorf("reference kernel: %w", err)
	}
	defer b.ref.close()
	var setups []float64
	ref := refClock{ref: b.ref}
	for i := 0; i < setupRepeats; i++ {
		if i > 0 {
			b.w.tearDown()
		}
		if err := ref.sample(); err != nil {
			return nil, err
		}
		t0 := time.Now()
		err := b.w.setUp()
		setups = append(setups, time.Since(t0).Seconds())
		if err != nil {
			b.w.tearDown()
			return nil, fmt.Errorf("set-up: %w", err)
		}
	}
	defer b.w.tearDown()
	fmt.Fprintf(b.out, "set-ups %s\n", fmtList(setups))
	setup := b.timing("setup_s", "s", "median set-up", quantile(setups, 0.5), setups, 1, b.atReference(&ref))

	var metrics map[string]metric
	if b.cfg.trace {
		metrics, err = b.traced()
	} else {
		metrics, err = b.endToEnd(setup)
	}
	if err != nil {
		return nil, err
	}
	digest := b.runDigest()
	fmt.Fprintf(b.out, "digest %s\n", digest)
	key := fmt.Sprintf("%s-seed%d", b.cfg.workload, b.cfg.seed)
	if b.cfg.short {
		key += "-short"
	}
	err = digestStore{b.cfg.stateDir}.check(key, digest)
	b.check(err == nil, "%v", err)
	return metrics, nil
}

// endToEnd repeats rounds until the run's time is spent and reports the
// end-to-end metrics. A round starts only if the median round so far
// still fits; the first always runs.
func (b *bench) endToEnd(setup float64) (map[string]metric, error) {
	start := time.Now()
	var walls, allocs, lats []float64
	byKey := map[string][]float64{}
	iters := 0
	ref := refClock{ref: b.ref}
	for {
		if err := ref.sample(); err != nil {
			return nil, err
		}
		r := b.timeRound(func() roundOut { return b.w.round() })
		walls = append(walls, r.wall.Seconds())
		allocs = append(allocs, float64(r.alloc))
		for _, l := range r.out.latencies {
			lats = append(lats, l.sec)
			byKey[l.key] = append(byKey[l.key], l.sec)
		}
		iters += r.out.iters
		if time.Since(start).Seconds()+quantile(walls, 0.5) > b.cfg.seconds {
			break
		}
	}
	b.w.finish(b, b.digests, nil)
	total := 0.0
	for _, w := range walls {
		total += w
	}
	fmt.Fprintf(b.out, "rounds %s\n", fmtList(walls))
	scale := b.atReference(&ref)
	wall := b.timing("wall_s", "s", "median round", quantile(walls, 0.5), walls, 1, scale)
	alloc := quantile(allocs, 0.5) / 1e6
	fmt.Fprintf(b.out, "metric alloc_mb %.6g MB (median per round)\n", alloc)
	// A round mixes requests of very different cost (a fib campaign and a
	// serialize one, T4 and F8): the median over all requests would fall
	// in the gap between two kinds and jump with their extremes. The
	// median is taken over each kind's median instead.
	var kinds []float64
	for _, xs := range byKey {
		kinds = append(kinds, quantile(xs, 0.5))
	}
	p50 := b.timing("result_ms_p50", "ms", fmt.Sprintf("median of %d request kinds' medians", len(kinds)),
		quantile(kinds, 0.5), lats, 1e3, scale)
	if iters > 0 {
		fmt.Fprintf(b.out, "metric iters_per_s %.6g 1/s (%d measured iterations)\n", float64(iters)/total, iters)
	}
	if _, ok := b.w.(*daemonWorkload); ok {
		fmt.Fprintf(b.out, "metric campaigns_per_s %.6g 1/s (%d campaigns, one closed-loop client)\n",
			float64(len(lats))/total, len(lats))
		valid := "valid"
		if len(lats) < 200 {
			valid = "not valid: fewer than 200 campaigns"
		}
		fmt.Fprintf(b.out, "metric result_ms_p95 %.6g ms (n=%d, %s)\n", quantile(lats, 0.95)*1e3, len(lats), valid)
	}
	return map[string]metric{
		"setup_s":       {setup, "s"},
		"wall_s":        {wall, "s"},
		"result_ms_p50": {p50, "ms"},
		"alloc_mb":      {alloc, "MB"},
	}, nil
}

func fmtList(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return strings.Join(parts, " ")
}

// atReference prints the reference kernel's times over one phase of the
// run and returns the factor that brings the phase's timings to the
// reference speed.
func (b *bench) atReference(ref *refClock) float64 {
	scale := ref.scale()
	fmt.Fprintf(b.out, "reference kernel median %.6g s of %.4g s nominal, n=%d: timings below are measured times x %.6g\n",
		quantile(ref.samples, 0.5), refNominal, len(ref.samples), scale)
	return scale
}

// timing prints a timing metric: its median med of the samples xs in
// seconds, described by what, at the reference speed ref (see refClock)
// and converted to the metric's unit by unitScale, next to the measured
// median, and the highest percentile of xs with at least ten samples
// beyond it, with the sample count. It returns the value at the reference
// speed.
func (b *bench) timing(name, unit, what string, med float64, xs []float64, unitScale, ref float64) float64 {
	tail := ""
	for _, q := range []float64{0.99, 0.95, 0.90, 0.75} {
		if float64(len(xs))*(1-q) >= 10 {
			tail = fmt.Sprintf(", p%s %.6g", percentLabel(q), quantile(xs, q)*unitScale*ref)
			break
		}
	}
	v := med * unitScale * ref
	fmt.Fprintf(b.out, "metric %s %.6g %s (%s at reference speed, measured %.6g; n=%d%s)\n",
		name, v, unit, what, med*unitScale, len(xs), tail)
	return v
}

func percentLabel(q float64) string { return fmt.Sprintf("%g", math.Round(q*100)) }

// traced runs one untraced reference round, then one traced replay of
// the same work, and reports the per-layer metrics.
func (b *bench) traced() (map[string]metric, error) {
	tr := newTracer()
	if err := b.w.prepare(tr); err != nil {
		return nil, fmt.Errorf("preparing traced run: %w", err)
	}
	// The harness counts its own code-cache hits and misses once a metrics
	// observer is attached. Workloads whose runner the benchmark owns get
	// one for the reference round; the others keep the replica's count.
	reg := metrics.NewRegistry()
	obs, observed := b.w.(observable)
	if observed {
		obs.observe(harness.Observer{Metrics: reg})
	}
	ref := b.timeRound(func() roundOut { return b.w.round() })
	if observed {
		obs.observe(harness.Observer{})
	}
	refDigest := b.runDigest()
	b.digests = map[string]string{}
	var root int
	traced := b.timeRound(func() roundOut {
		root = tr.begin("round")
		defer tr.end(root)
		return b.w.replay(tr)
	})
	b.check(b.runDigest() == refDigest, "traced replay digest %s differs from the untraced round's %s",
		b.runDigest(), refDigest)
	b.w.finish(b, b.digests, tr)

	l := tr.reconcile(root)
	m := map[string]float64{}
	b.w.layerMetrics(tr, &l, m)
	if observed {
		snap := reg.Snapshot()
		m["harness.cache_hits"] = float64(snap.Counter("harness_code_cache_hits_total"))
		m["harness.cache_misses"] = float64(snap.Counter("harness_code_cache_misses_total"))
	}
	m["trace.unattributed_frac"] = l.unattributedFrac()
	m["trace.overhead_s"] = (traced.wall - l.ref - ref.wall).Seconds()
	fmt.Fprintf(b.out, "reference round %.6g s untraced, traced round %.6g s (%.6g s reference measurements)\n",
		ref.wall.Seconds(), traced.wall.Seconds(), l.ref.Seconds())
	layers := make([]string, 0, len(l.self))
	for k := range l.self {
		layers = append(layers, k)
	}
	sort.Strings(layers)
	for _, k := range layers {
		fmt.Fprintf(b.out, "layer %-12s self %.6g s (%.2f%%)\n", k, l.self[k].Seconds(),
			100*l.self[k].Seconds()/(l.wall-l.ref).Seconds())
	}
	fmt.Fprintf(b.out, "layer %-12s self %.6g s (%.2f%%, tolerance %.0f%%)\n", "(none)",
		l.unattributed.Seconds(), 100*l.unattributedFrac(), 100*unattributedTolerance)
	b.check(l.unattributedFrac() <= unattributedTolerance,
		"trace.unattributed_frac %.4f above tolerance %.2f", l.unattributedFrac(), unattributedTolerance)

	out := map[string]metric{}
	for _, pm := range perLayer {
		v := m[pm.name]
		fmt.Fprintf(b.out, "metric %s %.6g %s\n", pm.name, v, pm.unit)
		out[pm.name] = metric{v, pm.unit}
	}
	return out, nil
}

// perLayer lists every per-layer metric a traced run prints. A layer a
// workload bypasses reads 0.
var perLayer = []struct{ name, unit string }{
	{"minipy.compile_ms", "ms"},
	{"minipy.lower_ms", "ms"},
	{"minipy.ops", "count"},
	{"minipy.reg_ops", "count"},
	{"analysis.check_ms", "ms"},
	{"analysis.analyze_ms", "ms"},
	{"harness.cache_misses", "count"},
	{"harness.cache_hits", "count"},
	{"harness.self_s", "s"},
	{"vm.module_ms", "ms"},
	{"vm.run_s", "s"},
	{"vm.steps", "count"},
	{"vm.ns_per_step", "ns"},
	{"vm.alloc_bytes_per_iter", "B"},
	{"vm.jit_traces", "count"},
	{"vm.guard_fails", "count"},
	{"counters.s", "s"},
	{"counters.ops", "count"},
	{"counters.l1_mpki", "mpki"},
	{"counters.l2_mpki", "mpki"},
	{"counters.tlb_mpki", "mpki"},
	{"counters.branch_mpki", "mpki"},
	{"methodology.compare_s", "s"},
	{"methodology.evaluate_s", "s"},
	{"stats.steady_state_s", "s"},
	{"core.experiment_s.T4", "s"},
	{"core.experiment_s.F8", "s"},
	{"report.render_ms", "ms"},
	{"controlapi.submit_ms_p50", "ms"},
	{"controlapi.first_event_ms_p50", "ms"},
	{"controlapi.exec_ms_p50", "ms"},
	{"controlapi.fetch_ms_p50", "ms"},
	{"controlapi.result_bytes", "B"},
	{"wal.data_dir_bytes", "B"},
	{"trace.events_per_campaign", "count"},
	{"trace.unattributed_frac", "ratio"},
	{"trace.overhead_s", "s"},
}

// frontEndMetrics fills the metrics every replica records, divided by per
// (1 for whole-run totals, the campaign count for per-campaign values).
func frontEndMetrics(tr *tracer, m map[string]float64, per float64) {
	ms := func(name string) float64 { return tr.total(name).Seconds() * 1e3 / per }
	m["minipy.compile_ms"] = ms("minipy.compile")
	m["minipy.lower_ms"] = ms("minipy.lower")
	m["analysis.check_ms"] = ms("analysis.check")
	m["analysis.analyze_ms"] = ms("analysis.analyze")
	m["vm.module_ms"] = ms("vm.module")
	for _, k := range []string{"minipy.ops", "minipy.reg_ops", "harness.cache_misses", "harness.cache_hits",
		"vm.steps", "vm.jit_traces", "vm.guard_fails"} {
		m[k] = tr.counts[k] / per
	}
	run := tr.total("vm.run").Seconds()
	m["vm.run_s"] = run / per
	if steps := tr.counts["vm.steps"]; steps > 0 {
		m["vm.ns_per_step"] = run * 1e9 / steps
	}
	if n := tr.counts["vm.iters"]; n > 0 {
		m["vm.alloc_bytes_per_iter"] = tr.counts["vm.alloc_bytes"] / n
	}
}

// expectedChecksums maps every workload to its hand-written checksum.
// With bad, fib's expectation is corrupted so the check must fire.
func expectedChecksums(bad bool) map[string]string {
	m := map[string]string{}
	for _, b := range append(workloads.Suite(), workloads.Extended()...) {
		m[b.Name] = b.Checksum
	}
	if bad {
		m["fib"] = "-1"
	}
	return m
}
