package main

import (
	"sort"
	"strings"
	"time"
)

// span is one timed call into a layer, recorded by the benchmark around a
// public entry point. The layer is the span name up to its first dot
// ("vm.run" belongs to layer "vm"). Spans whose name has no dot are the
// benchmark's own glue and are attributed to no layer.
type span struct {
	name   string
	parent int // index of the enclosing span, -1 for a root
	start  time.Duration
	end    time.Duration
	// ref marks a reference measurement: work the traced run repeats only
	// to measure a layer from outside (for example the same invocation
	// without the counter model). Reference spans and their children are
	// left out of the reconciliation.
	ref bool
}

func (s span) dur() time.Duration { return s.end - s.start }

func (s span) layer() string {
	if i := strings.IndexByte(s.name, '.'); i > 0 {
		return s.name[:i]
	}
	return ""
}

// tracer keeps every span and count of a traced run in memory until the
// run ends. A nil *tracer records nothing, so untraced code paths can call
// it freely.
type tracer struct {
	t0      time.Time
	spans   []span
	open    []int
	counts  map[string]float64
	samples map[string][]float64
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), counts: map[string]float64{}, samples: map[string][]float64{}}
}

// begin opens a span as a child of the innermost open span.
func (t *tracer) begin(name string) int { return t.open1(name, false) }

// beginRef opens a reference span (see span.ref).
func (t *tracer) beginRef(name string) int { return t.open1(name, true) }

func (t *tracer) open1(name string, ref bool) int {
	if t == nil {
		return -1
	}
	parent := -1
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
		ref = ref || t.spans[parent].ref
	}
	t.spans = append(t.spans, span{name: name, parent: parent, start: time.Since(t.t0), ref: ref})
	id := len(t.spans) - 1
	t.open = append(t.open, id)
	return id
}

// end closes span id, which must be the innermost open span.
func (t *tracer) end(id int) {
	if t == nil {
		return
	}
	t.spans[id].end = time.Since(t.t0)
	t.open = t.open[:len(t.open)-1]
}

// inRef reports whether the innermost open span is a reference
// measurement.
func (t *tracer) inRef() bool {
	return t != nil && len(t.open) > 0 && t.spans[t.open[len(t.open)-1]].ref
}

// add accumulates an exact count measured at a layer boundary.
func (t *tracer) add(name string, v float64) {
	if t != nil {
		t.counts[name] += v
	}
}

// sample records one observation of a per-operation quantity (latency
// intervals that are not call spans, such as queue wait).
func (t *tracer) sample(name string, v float64) {
	if t != nil {
		t.samples[name] = append(t.samples[name], v)
	}
}

// total is the summed duration of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.dur()
		}
	}
	return d
}

// durations lists the durations of every span with the given name, in
// seconds.
func (t *tracer) durations(name string) []float64 {
	var out []float64
	for _, s := range t.spans {
		if s.name == name {
			out = append(out, s.dur().Seconds())
		}
	}
	return out
}

// ledger is the reconciliation of one traced section: the self time of
// every layer, the part of the section no layer covers, and the time
// spent in reference measurements.
type ledger struct {
	wall         time.Duration
	self         map[string]time.Duration
	unattributed time.Duration
	ref          time.Duration
}

// reconcile computes the layer self times under root. A span's self time
// is its duration minus the part its children cover; spans run one at a
// time, so children never overlap.
func (t *tracer) reconcile(root int) ledger {
	child := make([]time.Duration, len(t.spans))
	for _, s := range t.spans {
		if s.parent >= 0 {
			child[s.parent] += s.dur()
		}
	}
	l := ledger{wall: t.spans[root].dur(), self: map[string]time.Duration{}}
	for i := root; i < len(t.spans); i++ {
		if i != root && !t.under(i, root) {
			continue
		}
		s := t.spans[i]
		switch {
		case s.ref:
			if !t.spans[s.parent].ref {
				l.ref += s.dur()
			}
		case s.layer() == "":
			l.unattributed += s.dur() - child[i]
		default:
			l.self[s.layer()] += s.dur() - child[i]
		}
	}
	// A reference span's duration is part of its parent's children, so
	// the parent's self time already excludes it.
	return l
}

func (t *tracer) under(i, root int) bool {
	for p := t.spans[i].parent; p >= 0; p = t.spans[p].parent {
		if p == root {
			return true
		}
	}
	return false
}

// unattributedFrac is the share of the traced section, reference
// measurements excluded, that no layer's self time covers.
func (l ledger) unattributedFrac() float64 {
	eff := l.wall - l.ref
	if eff <= 0 {
		return 1
	}
	return l.unattributed.Seconds() / eff.Seconds()
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics (0 for an empty slice).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}
