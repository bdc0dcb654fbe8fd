package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// result is the JSON line every run ends with.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// runShort runs one short benchmark run and returns its exit code, its
// standard output and its decoded last line.
func runShort(t *testing.T, state string, args ...string) (int, string, result) {
	t.Helper()
	var out, errb bytes.Buffer
	args = append([]string{"--short", "--seconds", "0.3", "--seed", "11", "--state", state}, args...)
	code := run(args, &out, &errb)
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var r result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &r); err != nil {
		t.Fatalf("%v: last line is not a result: %v\nstdout:\n%s\nstderr:\n%s", args, err, out.String(), errb.String())
	}
	if code == 0 && (!r.Correct || r.Failed != 0 || r.Attempted < 1) {
		t.Fatalf("%v: exit 0 with result %+v", args, r)
	}
	if code != 0 {
		t.Logf("%v: stderr:\n%s", args, errb.String())
	}
	return code, out.String(), r
}

// spec is the part of BENCHMARK.json the output must agree with.
type spec struct {
	Workloads []struct{ Name string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit string
	} `json:"end_to_end"`
	PerLayer []struct {
		Name, Unit string
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) spec {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var s spec
	if err := json.Unmarshal(data, &s); err != nil {
		t.Fatal(err)
	}
	return s
}

// printed reports whether the text report has a "metric <name> <value>
// <unit>" line.
func printed(out, name, unit string) bool {
	re := regexp.MustCompile(`(?m)^metric ` + regexp.QuoteMeta(name) + ` \S+ ` + regexp.QuoteMeta(unit) + `\b`)
	return re.MatchString(out)
}

// textMetrics are the end-to-end metrics each workload prints only in its
// text report, by name and unit.
var textMetrics = map[string][][2]string{
	"campaign":     {{"iters_per_s", "1/s"}},
	"characterize": {{"iters_per_s", "1/s"}},
	"methodology":  {},
	"daemon":       {{"campaigns_per_s", "1/s"}, {"result_ms_p95", "ms"}},
}

func TestShortRunsPrintEveryMetric(t *testing.T) {
	s := loadSpec(t)
	if len(s.Workloads) != len(workloadTable) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark has %d", len(s.Workloads), len(workloadTable))
	}
	for _, w := range s.Workloads {
		state := t.TempDir()
		code, out, r := runShort(t, state, "--workload", w.Name, "--trace", "0")
		if code != 0 {
			t.Fatalf("%s: exit %d", w.Name, code)
		}
		if len(r.Metrics) != len(s.EndToEnd) {
			t.Errorf("%s: %d end-to-end metrics, want %d", w.Name, len(r.Metrics), len(s.EndToEnd))
		}
		for _, m := range s.EndToEnd {
			got, ok := r.Metrics[m.Name]
			if !ok || got.Unit != m.Unit || got.Value <= 0 {
				t.Errorf("%s: metric %s = %+v, want a positive value in %s", w.Name, m.Name, got, m.Unit)
			}
			if !printed(out, m.Name, m.Unit) {
				t.Errorf("%s: no text line for %s", w.Name, m.Name)
			}
		}
		want := append(textMetrics[w.Name], [2]string{"error_rate", "ratio"})
		for _, m := range want {
			if !printed(out, m[0], m[1]) {
				t.Errorf("%s: no text line for %s in %s", w.Name, m[0], m[1])
			}
		}

		code, out, r = runShort(t, state, "--workload", w.Name, "--trace", "1")
		if code != 0 {
			t.Fatalf("%s traced: exit %d", w.Name, code)
		}
		if len(r.Metrics) != len(s.PerLayer) {
			t.Errorf("%s traced: %d per-layer metrics, want %d", w.Name, len(r.Metrics), len(s.PerLayer))
		}
		for _, m := range s.PerLayer {
			if got, ok := r.Metrics[m.Name]; !ok || got.Unit != m.Unit {
				t.Errorf("%s traced: metric %s = %+v, want unit %s", w.Name, m.Name, got, m.Unit)
			}
			if !printed(out, m.Name, m.Unit) {
				t.Errorf("%s traced: no text line for %s", w.Name, m.Name)
			}
		}
		if f := r.Metrics["trace.unattributed_frac"].Value; f > unattributedTolerance {
			t.Errorf("%s traced: unattributed share %.4f above tolerance", w.Name, f)
		}
	}
}

// The per-layer metrics must all be declared in the benchmark and in
// BENCHMARK.json alike.
func TestPerLayerListMatchesSpec(t *testing.T) {
	s := loadSpec(t)
	if len(s.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per-layer metrics, the benchmark %d", len(s.PerLayer), len(perLayer))
	}
	for i, m := range s.PerLayer {
		if m.Name != perLayer[i].name || m.Unit != perLayer[i].unit {
			t.Errorf("per-layer %d: spec %s/%s, benchmark %s/%s", i, m.Name, m.Unit, perLayer[i].name, perLayer[i].unit)
		}
	}
}

func TestInjectedBadChecksumFails(t *testing.T) {
	for _, w := range []string{"campaign", "characterize", "daemon"} {
		for _, trace := range []string{"0", "1"} {
			code, _, r := runShort(t, t.TempDir(), "--workload", w, "--trace", trace, "--inject-bad-checksum")
			if code != 1 || r.Correct || r.Failed == 0 {
				t.Errorf("%s trace %s: exit %d, result %+v; want exit 1 and failures", w, trace, code, r)
			}
		}
	}
}

// A second run of the same seed must reproduce the digest the first one
// stored; a tampered stored digest must fail the run.
func TestStoredDigestIsEnforced(t *testing.T) {
	state := t.TempDir()
	digest := regexp.MustCompile(`(?m)^digest (\w+)$`)
	code, out1, _ := runShort(t, state, "--workload", "campaign")
	if code != 0 {
		t.Fatalf("first run: exit %d", code)
	}
	code, out2, _ := runShort(t, state, "--workload", "campaign", "--trace", "1")
	if code != 0 {
		t.Fatalf("second run: exit %d", code)
	}
	if d1, d2 := digest.FindStringSubmatch(out1), digest.FindStringSubmatch(out2); d1 == nil || d2 == nil || d1[1] != d2[1] {
		t.Fatalf("digests differ across runs of one seed: %q vs %q", d1, d2)
	}
	p := digestStore{state}.path("campaign-seed11-short")
	if err := os.WriteFile(p, []byte("00\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code, _, _ := runShort(t, state, "--workload", "campaign"); code != 1 {
		t.Errorf("tampered stored digest: exit %d, want 1", code)
	}
}

func TestBadArgumentsExitUsage(t *testing.T) {
	var out, errb bytes.Buffer
	for _, args := range [][]string{{"--workload", "nosuch"}, {"--workload", "campaign", "--trace", "2"}, {"--bogus"}} {
		if code := run(args, &out, &errb); code != 2 {
			t.Errorf("%v: exit %d, want 2", args, code)
		}
	}
}

// A phase whose reference kernel ran at half the nominal speed reports
// its timings at twice the speed they were measured at.
func TestReferenceScale(t *testing.T) {
	slow := refClock{samples: []float64{2 * refNominal, 3 * refNominal, 2 * refNominal}}
	if got := slow.scale(); got != 0.5 {
		t.Errorf("scale %g, want 0.5", got)
	}
	var out bytes.Buffer
	b := &bench{out: &out}
	if v := b.timing("wall_s", "s", "median round", 1.5, []float64{1.5}, 1, slow.scale()); v != 0.75 {
		t.Errorf("wall_s %g at the reference speed, want 0.75", v)
	}
	if !strings.Contains(out.String(), "measured 1.5;") {
		t.Errorf("the measured median is not printed: %q", out.String())
	}
}
