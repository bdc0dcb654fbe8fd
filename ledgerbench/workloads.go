package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"syscall"
	"time"

	"repro/client"
	"repro/internal/controlapi"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/methodology"
	"repro/internal/noise"
	"repro/internal/report"
	"repro/internal/stats"
	"repro/internal/vm"
	"repro/internal/workloads"
)

// campaignMix is the fixed mix of the campaign and daemon workloads: two
// workloads of each of the six classes' families (call, numeric, object,
// string, dict, mixed).
var campaignMix = []string{"fib", "spectralnorm", "binarytrees", "richards", "strings", "dictstress", "branchy", "serialize"}

// The designs (invocations × iterations) are sized so that one round of a
// workload takes about a second on a 2-vCPU host: a run then holds enough
// rounds for its median to be steady on a noisy machine.
var (
	campaignDesign     = [2]int{2, 15}
	characterizeDesign = [2]int{1, 6}
	// methodologySuite and methodologyTrials shrink core's T4/F8 design
	// (full suite, 200 trials); nbody is F8's baseline workload.
	methodologySuite  = []string{"fib", "nbody", "richards", "dictstress"}
	methodologyTrials = 40
)

var workloadTable = []struct {
	name string
	new  func(config, map[string]string) workload
}{
	{"campaign", newCampaign},
	{"characterize", newCharacterize},
	{"methodology", newMethodology},
	{"daemon", newDaemon},
}

func workloadNames() []string {
	var names []string
	for _, w := range workloadTable {
		names = append(names, w.name)
	}
	return names
}

func workloadByName(name string) (func(config, map[string]string) workload, bool) {
	for _, w := range workloadTable {
		if w.name == name {
			return w.new, true
		}
	}
	return nil, false
}

// deriveSeed maps the run's seed and an input index to the seed of one
// generated input (splitmix64). It never returns 0, which the program
// reads as "use the default seed".
func deriveSeed(seed uint64, i int) uint64 {
	z := seed + uint64(i+1)*0x9E3779B97F4A7C15
	z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9
	z = (z ^ (z >> 27)) * 0x94D049BB133111EB
	z ^= z >> 31
	if z == 0 {
		z = 1
	}
	return z
}

// specOptions is the harness experiment a single-benchmark campaign spec
// runs, as controlapi.Execute builds it.
func specOptions(s controlapi.CampaignSpec) (workloads.Benchmark, harness.Options, error) {
	b, ok := workloads.ByName(s.Benchmarks[0])
	mode, err := controlapi.ModeByName(s.Mode)
	if err != nil || !ok {
		return b, harness.Options{}, fmt.Errorf("bad spec %v", s)
	}
	np, err := controlapi.NoiseByName(s.Noise)
	if err != nil {
		return b, harness.Options{}, err
	}
	return b, harness.Options{Mode: mode, Invocations: s.Invocations, Iterations: s.Iterations,
		Seed: s.Seed, Noise: np}, nil
}

func specKey(s controlapi.CampaignSpec) string {
	return s.Benchmarks[0] + "/" + s.Mode
}

func iterations(rs []*harness.Result) int {
	n := 0
	for _, r := range rs {
		for _, inv := range r.Invocations {
			n += len(inv.TimesSec)
		}
	}
	return n
}

// fail records one failed operation in a round.
func (o *roundOut) fail(format string, args ...any) {
	o.failed++
	o.errs = append(o.errs, fmt.Sprintf(format, args...))
}

// ---- campaign: controlapi.Execute, the `pybench -bench` path ----

type campaignWorkload struct {
	specs  []controlapi.CampaignSpec
	runner *harness.Runner
	rep    *replica
}

func newCampaign(cfg config, _ map[string]string) workload {
	w := &campaignWorkload{}
	inv, it := campaignDesign[0], campaignDesign[1]
	if cfg.short {
		inv, it = 1, 3
	}
	for _, name := range campaignMix {
		for _, mode := range []string{"interp", "jit"} {
			w.specs = append(w.specs, controlapi.CampaignSpec{
				Benchmarks: []string{name}, Mode: mode, Invocations: inv, Iterations: it,
				Seed: deriveSeed(cfg.seed, len(w.specs)), Noise: "default"})
		}
	}
	return w
}

// setUp creates the runner and fills its code cache.
func (w *campaignWorkload) setUp() error {
	w.runner = harness.NewRunner()
	for _, name := range campaignMix {
		b, _ := workloads.ByName(name)
		if _, _, err := w.runner.Cache().Get(b); err != nil {
			return err
		}
	}
	return nil
}

func (w *campaignWorkload) tearDown() { w.runner = nil }

func (w *campaignWorkload) observe(o harness.Observer) { w.runner.SetObserver(o) }

func (w *campaignWorkload) round() roundOut {
	var o roundOut
	for _, s := range w.specs {
		t0 := time.Now()
		res, err := controlapi.Execute(s, controlapi.ExecOptions{Runner: w.runner})
		o.latencies = append(o.latencies, latency{specKey(s), time.Since(t0).Seconds()})
		o.attempted++
		if err != nil {
			o.fail("%s: %v", specKey(s), err)
			continue
		}
		o.iters += iterations(res)
		o.units = append(o.units, unit{key: specKey(s), results: res})
	}
	return o
}

func (w *campaignWorkload) prepare(tr *tracer) error {
	w.rep = newReplica(tr)
	sp := tr.begin("setup")
	defer tr.end(sp)
	for _, name := range campaignMix {
		b, _ := workloads.ByName(name)
		if _, err := w.rep.frontEnd(b); err != nil {
			return err
		}
	}
	return nil
}

func (w *campaignWorkload) replay(tr *tracer) roundOut {
	var o roundOut
	for _, s := range w.specs {
		o.attempted++
		b, opts, err := specOptions(s)
		var res *harness.Result
		if err == nil {
			res, err = w.rep.run(b, opts)
		}
		if err != nil {
			o.fail("%s: %v", specKey(s), err)
			continue
		}
		o.units = append(o.units, unit{key: specKey(s), results: []*harness.Result{res}})
	}
	return o
}

func (w *campaignWorkload) finish(*bench, map[string]string, *tracer) {}

func (w *campaignWorkload) layerMetrics(tr *tracer, l *ledger, m map[string]float64) {
	frontEndMetrics(tr, m, 1)
	m["harness.self_s"] = l.self["harness"].Seconds()
}

// ---- characterize: harness.Runner.Run with the counter model ----

type characterizeWorkload struct {
	benches []workloads.Benchmark
	opts    []harness.Options
	runner  *harness.Runner
	rep     *replica
}

func newCharacterize(cfg config, expected map[string]string) workload {
	w := &characterizeWorkload{}
	inv, it := characterizeDesign[0], characterizeDesign[1]
	suite := workloads.Suite()
	if cfg.short {
		inv, it, suite = 1, 2, suite[:3]
	}
	for i, b := range suite {
		// The harness validates the hand-written checksum itself, so an
		// injected bad expectation must make the run fail.
		b.Checksum = expected[b.Name]
		w.benches = append(w.benches, b)
		w.opts = append(w.opts, harness.Options{Mode: vm.ModeInterp, Invocations: inv, Iterations: it,
			Seed: deriveSeed(cfg.seed, i), Noise: noise.Default(), WithCounters: true})
	}
	return w
}

func (w *characterizeWorkload) setUp() error {
	w.runner = harness.NewRunner()
	for _, b := range w.benches {
		if _, _, err := w.runner.Cache().Get(b); err != nil {
			return err
		}
	}
	return nil
}

func (w *characterizeWorkload) tearDown() { w.runner = nil }

func (w *characterizeWorkload) observe(o harness.Observer) { w.runner.SetObserver(o) }

func (w *characterizeWorkload) round() roundOut {
	var o roundOut
	for i, b := range w.benches {
		t0 := time.Now()
		res, err := w.runner.Run(b, w.opts[i])
		o.latencies = append(o.latencies, latency{b.Name, time.Since(t0).Seconds()})
		o.attempted++
		if err != nil {
			o.fail("%s: %v", b.Name, err)
			continue
		}
		o.iters += iterations([]*harness.Result{res})
		o.units = append(o.units, unit{key: b.Name, results: []*harness.Result{res}})
	}
	return o
}

func (w *characterizeWorkload) prepare(tr *tracer) error {
	w.rep = newReplica(tr)
	sp := tr.begin("setup")
	defer tr.end(sp)
	for _, b := range w.benches {
		if _, err := w.rep.frontEnd(b); err != nil {
			return err
		}
	}
	return nil
}

func (w *characterizeWorkload) replay(tr *tracer) roundOut {
	var o roundOut
	for i, b := range w.benches {
		o.attempted++
		res, err := w.rep.run(b, w.opts[i])
		if err != nil {
			o.fail("%s: %v", b.Name, err)
			continue
		}
		o.units = append(o.units, unit{key: b.Name, results: []*harness.Result{res}})
	}
	return o
}

func (w *characterizeWorkload) finish(*bench, map[string]string, *tracer) {}

// layerMetrics splits the probed invocations' time between the VM (the
// same invocation without the model) and the counter model (the rest).
func (w *characterizeWorkload) layerMetrics(tr *tracer, l *ledger, m map[string]float64) {
	frontEndMetrics(tr, m, 1)
	bare := tr.total("vm.module") + tr.total("vm.run")
	probed := tr.total("counters.vm_module") + tr.total("counters.vm_run")
	l.self["counters"] -= bare
	l.self["vm"] += bare
	m["counters.s"] = (probed - bare).Seconds()
	m["harness.self_s"] = l.self["harness"].Seconds()
	m["counters.ops"] = tr.counts["counters.ops"]
	if ins := tr.counts["counters.instructions"]; ins > 0 {
		for _, k := range []string{"l1", "l2", "tlb", "branch"} {
			m["counters."+k+"_mpki"] = tr.counts["counters."+k+"_misses"] * 1000 / ins
		}
	}
}

// ---- methodology: core.Engine.Experiment("T4") then ("F8") ----

type methodologyWorkload struct {
	cfg core.Config
	// expS holds the latest untraced experiment durations, in seconds.
	expS map[string]float64
}

var experimentIDs = []string{"T4", "F8"}

func newMethodology(cfg config, _ map[string]string) workload {
	c := core.Config{Seed: deriveSeed(cfg.seed, 0), Trials: methodologyTrials}
	for _, name := range methodologySuite {
		b, _ := workloads.ByName(name)
		c.Benchmarks = append(c.Benchmarks, b)
	}
	if cfg.short {
		fib, _ := workloads.ByName("fib")
		nbody, _ := workloads.ByName("nbody")
		c.Invocations, c.Iterations, c.Trials = 3, 6, 24
		c.Benchmarks = []workloads.Benchmark{fib, nbody}
	}
	return &methodologyWorkload{cfg: c, expS: map[string]float64{}}
}

// setUp constructs the engine and compiles the suite the experiments run.
// core owns its runner, so the experiments compile again inside the timed
// section; set-up measures the same cold front end.
func (w *methodologyWorkload) setUp() error {
	runner := harness.NewRunner()
	for _, b := range core.New(w.cfg).Config().Benchmarks {
		if _, _, err := runner.Cache().Get(b); err != nil {
			return err
		}
	}
	return nil
}

func (w *methodologyWorkload) tearDown() {}

func (w *methodologyWorkload) round() roundOut {
	var o roundOut
	e := core.New(w.cfg)
	for _, id := range experimentIDs {
		t0 := time.Now()
		out, err := e.Experiment(id)
		var text string
		if err == nil {
			text = out.String()
		}
		d := time.Since(t0).Seconds()
		o.latencies = append(o.latencies, latency{id, d})
		w.expS[id] = d
		o.attempted++
		if err != nil {
			o.fail("%s: %v", id, err)
			continue
		}
		for _, m := range methodology.All(0) {
			if !strings.Contains(text, m.Name()) {
				o.fail("%s: report has no row for %s", id, m.Name())
			}
		}
		o.units = append(o.units, unit{key: id, output: text})
	}
	return o
}

func (w *methodologyWorkload) prepare(*tracer) error { return nil }

// replay repeats T4 and F8 through the harness, methodology, stats and
// report entry points. The rendered reports must equal core's byte for
// byte; the digest check enforces it.
func (w *methodologyWorkload) replay(tr *tracer) roundOut {
	var o roundOut
	x := &methodologyReplay{cfg: core.New(w.cfg).Config(), rep: newReplica(tr), tr: tr, profiles: map[string][]float64{}}
	for _, id := range experimentIDs {
		o.attempted++
		sp := tr.begin("core." + id)
		var text string
		var err error
		if id == "T4" {
			text, err = x.table4()
		} else {
			text, err = x.figure8()
		}
		tr.end(sp)
		if err != nil {
			o.fail("%s: %v", id, err)
			continue
		}
		o.units = append(o.units, unit{key: id, output: text})
	}
	return o
}

func (w *methodologyWorkload) finish(*bench, map[string]string, *tracer) {}

func (w *methodologyWorkload) layerMetrics(tr *tracer, l *ledger, m map[string]float64) {
	frontEndMetrics(tr, m, 1)
	m["harness.self_s"] = l.self["harness"].Seconds()
	m["methodology.compare_s"] = tr.total("methodology.compare").Seconds()
	m["methodology.evaluate_s"] = tr.total("methodology.evaluate").Seconds()
	m["stats.steady_state_s"] = tr.total("stats.steady_state").Seconds()
	m["report.render_ms"] = tr.total("report.render").Seconds() * 1e3
	for _, id := range experimentIDs {
		m["core.experiment_s."+id] = w.expS[id]
	}
}

// methodologyReplay rebuilds core's Table 4 and Figure 8 from the layers'
// public functions, with core's configuration and seed derivation.
type methodologyReplay struct {
	cfg      core.Config
	rep      *replica
	tr       *tracer
	profiles map[string][]float64
}

// baseProfile is core's noise-free single-invocation warmup profile.
func (x *methodologyReplay) baseProfile(b workloads.Benchmark, mode vm.Mode) ([]float64, error) {
	key := fmt.Sprintf("%s/%s/%d", b.Name, mode, x.cfg.Iterations)
	if p, ok := x.profiles[key]; ok {
		return p, nil
	}
	res, err := x.rep.run(b, harness.Options{Mode: mode, Invocations: 1, Iterations: x.cfg.Iterations, Noise: noise.None()})
	if err != nil {
		return nil, err
	}
	p := res.Invocations[0].TimesSec
	x.profiles[key] = p
	return p, nil
}

func (x *methodologyReplay) generators(b workloads.Benchmark) (gi, gj methodology.TrialGenerator, err error) {
	pi, err := x.baseProfile(b, vm.ModeInterp)
	if err != nil {
		return gi, gj, err
	}
	pj, err := x.baseProfile(b, vm.ModeJIT)
	if err != nil {
		return gi, gj, err
	}
	return methodology.TrialGenerator{Base: pi, Noise: x.cfg.Noise},
		methodology.TrialGenerator{Base: pj, Noise: x.cfg.Noise}, nil
}

func (x *methodologyReplay) evaluate(m methodology.Methodology, base, treat methodology.TrialGenerator,
	trials int, seed uint64) methodology.ErrorRates {
	sp := x.tr.begin("methodology.evaluate")
	defer x.tr.end(sp)
	return methodology.EvaluateMethodology(timedMethodology{m, x.tr}, base, treat,
		x.cfg.Invocations, x.cfg.Iterations, trials, 0.01, seed)
}

func (x *methodologyReplay) render(s fmt.Stringer) string {
	sp := x.tr.begin("report.render")
	defer x.tr.end(sp)
	return s.String()
}

func (x *methodologyReplay) table4() (string, error) {
	t := report.NewTable("Table 4: misleading conclusions by methodology",
		"methodology", "misleading%", "missed%", "mean |rel err|%")
	agg := map[string]*methodology.ErrorRates{}
	var order []string
	perBench := max(x.cfg.Trials/len(x.cfg.Benchmarks), 10)
	for _, b := range x.cfg.Benchmarks {
		gi, gj, err := x.generators(b)
		if err != nil {
			return "", err
		}
		for _, m := range methodology.All(x.cfg.Seed) {
			er := x.evaluate(m, gi, gj, perBench, x.cfg.Seed^benchSeed(b.Name, 0))
			a, ok := agg[m.Name()]
			if !ok {
				a = &methodology.ErrorRates{Methodology: m.Name()}
				agg[m.Name()] = a
				order = append(order, m.Name())
			}
			a.Trials += er.Trials
			a.Misleading += er.Misleading
			a.Missed += er.Missed
			a.MeanRelErr += er.MeanRelErr * float64(er.Trials)
		}
	}
	for _, name := range order {
		a := agg[name]
		t.AddRow(name, 100*a.MisleadingRate(), 100*a.MissRate(), 100*a.MeanRelErr/float64(a.Trials))
	}
	t.Caption = fmt.Sprintf("%d synthetic trials per benchmark per methodology on real engine warmup profiles; equivalence band ±1%%.",
		perBench)
	return x.render(t), nil
}

func (x *methodologyReplay) figure8() (string, error) {
	f := report.NewFigure("Figure 8: P(misleading or missed) vs true effect size",
		"true speedup effect %", "wrong-conclusion rate %")
	b := x.cfg.Benchmarks[0]
	for _, cand := range x.cfg.Benchmarks {
		if cand.Name == "nbody" {
			b = cand
		}
	}
	gi, _, err := x.generators(b)
	if err != nil {
		return "", err
	}
	effects := []float64{0, 0.005, 0.01, 0.02, 0.05, 0.10, 0.20, 0.50}
	trials := max(x.cfg.Trials/2, 20)
	for _, m := range methodology.All(x.cfg.Seed) {
		xs := make([]float64, 0, len(effects))
		ys := make([]float64, 0, len(effects))
		for _, eff := range effects {
			er := x.evaluate(m, gi, gi.Scaled(1+eff), trials, x.cfg.Seed+uint64(eff*1e4))
			xs = append(xs, 100*eff)
			ys = append(ys, 100*float64(er.Misleading+er.Missed)/float64(er.Trials))
		}
		f.AddXY(m.Name(), xs, ys)
	}
	f.Caption = fmt.Sprintf("Synthetic treatments scaled from %s's interpreter profile; %d trials per point; equivalence band ±1%%.",
		b.Name, trials)
	return x.render(f), nil
}

// benchSeed is core's per-(benchmark, mode) seed offset.
func benchSeed(name string, mode vm.Mode) uint64 {
	var h uint64 = 14695981039346656037
	for i := 0; i < len(name); i++ {
		h ^= uint64(name[i])
		h *= 1099511628211
	}
	return h ^ uint64(mode+1)<<32
}

// timedMethodology records a span around every comparison. For the
// rigorous methodology it first classifies each invocation's steady state
// as a reference measurement: Compare repeats that work inside, where the
// benchmark cannot time it apart.
type timedMethodology struct {
	m  methodology.Methodology
	tr *tracer
}

func (t timedMethodology) Name() string { return t.m.Name() }

func (t timedMethodology) Compare(a, b stats.HierarchicalSample) methodology.Comparison {
	if _, ok := t.m.(methodology.Rigorous); ok {
		sp := t.tr.beginRef("stats.steady_state")
		for _, h := range []stats.HierarchicalSample{a, b} {
			for _, inv := range h.Times {
				stats.ClassifySteadyState(inv, 0, 0, 0)
			}
		}
		t.tr.end(sp)
	}
	sp := t.tr.begin("methodology.compare")
	defer t.tr.end(sp)
	return t.m.Compare(a, b)
}

// ---- daemon: an in-process pybenchd driven by one closed-loop client ----

type daemonWorkload struct {
	specs []controlapi.CampaignSpec
	batch int
	state string

	dir   string
	srv   *controlapi.Server
	hs    *http.Server
	serve chan struct{}
	hc    *http.Client
	cl    *client.Client
	// next counts campaigns submitted to the current server; campaign i
	// runs specs[i % len(specs)].
	next int
	// served maps a spec key to the spec the daemon stored (normalized
	// and clamped), for the in-process comparison.
	served map[string]controlapi.CampaignSpec
	// replicated and replicaSelf are the traced run's cold replays of
	// the distinct campaigns and the harness self time they took.
	replicated  int
	replicaSelf time.Duration
}

func newDaemon(cfg config, _ map[string]string) workload {
	w := &daemonWorkload{batch: 96, state: cfg.stateDir}
	mix := campaignMix
	if cfg.short {
		w.batch, mix = 8, mix[:2]
	}
	for _, name := range mix {
		for _, mode := range []string{"interp", "jit"} {
			w.specs = append(w.specs, controlapi.CampaignSpec{
				Benchmarks: []string{name}, Mode: mode, Invocations: 1, Iterations: 1,
				Seed: deriveSeed(cfg.seed, len(w.specs)), Noise: "default"})
		}
	}
	return w
}

// setUp starts a server on a fresh data directory, listens on loopback
// and waits for the first successful health check.
func (w *daemonWorkload) setUp() error {
	dir, err := os.MkdirTemp(w.state, "daemon-")
	if err != nil {
		return err
	}
	w.dir, w.next, w.served = dir, 0, map[string]controlapi.CampaignSpec{}
	if w.srv, err = controlapi.New(controlapi.Options{DataDir: dir}); err != nil {
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	w.hs = &http.Server{Handler: w.srv.Handler()}
	w.serve = make(chan struct{})
	go func() {
		defer close(w.serve)
		//benchlint:allow uncheckederr — Serve returns ErrServerClosed on tearDown
		w.hs.Serve(ln)
	}()
	w.srv.Start()
	// One client, at most two connections: the event stream and a request.
	w.hc = &http.Client{Transport: &http.Transport{MaxConnsPerHost: 2, MaxIdleConnsPerHost: 2}}
	w.cl = client.New(ln.Addr().String(), client.WithHTTPClient(w.hc))
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_, err = w.cl.Health(ctx)
	return err
}

// tearDown drains the server, closes the listener and connections and
// removes the data directory; it waits for the serving goroutine.
func (w *daemonWorkload) tearDown() {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	if w.srv != nil {
		//benchlint:allow uncheckederr — running campaigns are cancelled past the deadline
		w.srv.Shutdown(ctx)
	}
	if w.hs != nil {
		if err := w.hs.Shutdown(ctx); err != nil {
			//benchlint:allow uncheckederr — forced close after a failed graceful shutdown
			w.hs.Close()
		}
		<-w.serve
	}
	if w.hc != nil {
		w.hc.CloseIdleConnections()
	}
	if w.dir != "" {
		//benchlint:allow uncheckederr — scratch data directory
		os.RemoveAll(w.dir)
		// Commit the removal now, so the next set-up's fsyncs do not pay
		// for the thousands of files a run leaves behind.
		syscall.Sync()
	}
	w.srv, w.hs, w.hc, w.cl, w.dir = nil, nil, nil, nil, ""
}

func (w *daemonWorkload) round() roundOut { return w.loop(nil) }

func (w *daemonWorkload) prepare(*tracer) error { return nil }

func (w *daemonWorkload) replay(tr *tracer) roundOut { return w.loop(tr) }

var errFirstEvent = errors.New("first event received")

// loop runs one batch of campaigns in a closed loop: Submit, Stream until
// the first event, Wait for the terminal state and the result. Traced, it
// splits Wait into its stream and its fetch and times each.
func (w *daemonWorkload) loop(tr *tracer) roundOut {
	var o roundOut
	for i := 0; i < w.batch; i++ {
		s := w.specs[w.next%len(w.specs)]
		w.next++
		key := specKey(s)
		o.attempted++
		t0 := time.Now()
		st, err := w.campaign(tr, s)
		o.latencies = append(o.latencies, latency{key, time.Since(t0).Seconds()})
		if err != nil {
			o.fail("campaign %s: %v", key, err)
			continue
		}
		w.served[key] = st.Spec
		o.iters += iterations(st.Results)
		o.units = append(o.units, unit{key: key, results: st.Results})
	}
	return o
}

func (w *daemonWorkload) campaign(tr *tracer, s controlapi.CampaignSpec) (*client.CampaignStatus, error) {
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	sp := tr.begin("controlapi.submit")
	st, err := w.cl.Submit(ctx, s)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	submitted := time.Now()
	sp = tr.begin("controlapi.first_event")
	err = w.cl.Stream(ctx, st.ID, 0, func(client.Event) error { return errFirstEvent })
	tr.end(sp)
	if !errors.Is(err, errFirstEvent) {
		return nil, fmt.Errorf("stream ended before its first event: %v", err)
	}
	if tr == nil {
		return w.cl.Wait(ctx, st.ID, nil)
	}
	var running, terminal time.Time
	sp = tr.begin("controlapi.stream")
	err = w.cl.Stream(ctx, st.ID, 0, func(ev client.Event) error {
		switch ev.Type {
		case controlapi.EventTrace:
			tr.add("trace.events", 1)
		case controlapi.EventState:
			var sc controlapi.StateChange
			if err := json.Unmarshal(ev.Data, &sc); err != nil {
				return err
			}
			if sc.State == controlapi.StateRunning {
				running = time.Now()
			} else if sc.State.Terminal() {
				terminal = time.Now()
			}
		}
		return nil
	})
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	sp = tr.begin("controlapi.fetch")
	final, err := w.cl.Get(ctx, st.ID)
	tr.end(sp)
	if err != nil {
		return nil, err
	}
	if final.State != controlapi.StateDone {
		return nil, &client.CampaignError{Status: final}
	}
	tr.sample("controlapi.first_event", running.Sub(submitted).Seconds())
	tr.sample("controlapi.exec", terminal.Sub(running).Seconds())
	return final, nil
}

// finish compares every distinct campaign's daemon result with an
// in-process controlapi.Execute of the spec the daemon stored. Traced, it
// also repeats each distinct campaign cold through the replica, so the
// front end and VM cost per campaign shows.
func (w *daemonWorkload) finish(b *bench, digests map[string]string, tr *tracer) {
	keys := make([]string, 0, len(digests))
	for k := range digests {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		res, err := controlapi.Execute(w.served[k], controlapi.ExecOptions{})
		b.check(err == nil, "in-process %s: %v", k, err)
		if err == nil {
			d := unit{key: k, results: res}.digest()
			b.check(d == digests[k], "%s: daemon sample set differs from in-process Execute", k)
		}
	}
	if tr == nil {
		return
	}
	root := tr.begin("replica")
	for _, k := range keys {
		rb, opts, err := specOptions(w.served[k])
		if err == nil {
			_, err = newReplica(tr).run(rb, opts)
		}
		b.check(err == nil, "replica %s: %v", k, err)
	}
	tr.end(root)
	w.replicaSelf = tr.reconcile(root).self["harness"]
	w.replicated = len(keys)
}

func (w *daemonWorkload) layerMetrics(tr *tracer, _ *ledger, m map[string]float64) {
	per := float64(max(w.replicated, 1))
	frontEndMetrics(tr, m, per)
	m["harness.self_s"] = w.replicaSelf.Seconds() / per
	p50ms := func(xs []float64) float64 { return quantile(xs, 0.5) * 1e3 }
	m["controlapi.submit_ms_p50"] = p50ms(tr.durations("controlapi.submit"))
	m["controlapi.first_event_ms_p50"] = p50ms(tr.samples["controlapi.first_event"])
	m["controlapi.exec_ms_p50"] = p50ms(tr.samples["controlapi.exec"])
	m["controlapi.fetch_ms_p50"] = p50ms(tr.durations("controlapi.fetch"))
	traced := float64(len(tr.durations("controlapi.fetch")))
	if traced > 0 {
		m["trace.events_per_campaign"] = tr.counts["trace.events"] / traced
	}
	total, results, nresults := dirBytes(w.dir)
	if w.next > 0 {
		m["wal.data_dir_bytes"] = float64(total) / float64(w.next)
	}
	if nresults > 0 {
		m["controlapi.result_bytes"] = float64(results) / float64(nresults)
	}
}

// dirBytes sums the file sizes under a daemon data directory, and those
// of its persisted result documents.
func dirBytes(dir string) (total, results int64, nresults int) {
	//benchlint:allow uncheckederr — a file removed mid-walk is simply not counted
	filepath.WalkDir(dir, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return nil
		}
		info, err := d.Info()
		if err != nil {
			return nil
		}
		total += info.Size()
		if filepath.Base(filepath.Dir(p)) == "results" {
			results += info.Size()
			nresults++
		}
		return nil
	})
	return total, results, nresults
}
