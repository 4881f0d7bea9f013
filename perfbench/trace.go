package main

import (
	"encoding/json"
	"os"
	"runtime"
	"time"
)

// A span is one timed call into a layer, recorded by the benchmark
// around a public function of that layer. Attribution spans re-run an
// inner layer's own public function on the same input after the op has
// ended, because the composed call that contains it cannot be split
// from outside; their time is subtracted from the declared parent's
// self time, but it lies outside every op interval.
type span struct {
	Name    string `json:"name"`
	Parent  int    `json:"parent"` // index into the tracer's spans; -1 for an op
	Attr    bool   `json:"attribution,omitempty"`
	StartNS int64  `json:"start_ns"` // since the tracer was created
	DurNS   int64  `json:"dur_ns"`
	Allocs  uint64 `json:"allocs,omitempty"`

	start  time.Time
	malloc uint64
}

// tracer keeps spans in memory. With countAllocs set it also reads the
// exact heap allocation count at each span boundary; that read stops
// the world, so such a pass gives counts, never times.
type tracer struct {
	epoch       time.Time
	countAllocs bool
	spans       []span
	counts      map[string]float64
	// later holds the attribution calls queued by the pass's ops. They
	// run after the pass, so their garbage is not collected inside it.
	later []func()
}

// newTracer sizes the span slice up front so that growing it never
// allocates inside a counted span.
func newTracer(countAllocs bool, capacity int) *tracer {
	return &tracer{
		epoch:       time.Now(),
		countAllocs: countAllocs,
		spans:       make([]span, 0, capacity),
		counts:      make(map[string]float64),
	}
}

func mallocs() uint64 {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return m.Mallocs
}

func (t *tracer) begin(parent int, name string, attr bool) int {
	t.spans = append(t.spans, span{Name: name, Parent: parent, Attr: attr})
	s := &t.spans[len(t.spans)-1]
	if t.countAllocs {
		s.malloc = mallocs()
	}
	s.start = time.Now()
	return len(t.spans) - 1
}

// start opens a span around a call made as part of the op.
func (t *tracer) start(parent int, name string) int { return t.begin(parent, name, false) }

// attr opens an attribution span (see span).
func (t *tracer) attr(parent int, name string) int { return t.begin(parent, name, true) }

func (t *tracer) end(id int) {
	now := time.Now()
	s := &t.spans[id]
	s.DurNS = int64(now.Sub(s.start))
	s.StartNS = int64(s.start.Sub(t.epoch))
	if t.countAllocs {
		s.Allocs = mallocs() - s.malloc
	}
}

// flush runs the queued attribution calls.
func (t *tracer) flush() {
	for _, f := range t.later {
		f()
	}
	t.later = nil
}

// count adds n to an exact work counter.
func (t *tracer) count(name string, n float64) { t.counts[name] += n }

// selfTimes sums, per span name, each span's duration minus the
// durations of its children (attribution children included), and the
// same for allocations. Op spans report their self part as
// "unattributed".
func (t *tracer) selfTimes() (secs, allocs map[string]float64) {
	childNS := make([]int64, len(t.spans))
	childAllocs := make([]uint64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childNS[s.Parent] += s.DurNS
			childAllocs[s.Parent] += s.Allocs
		}
	}
	secs = make(map[string]float64)
	allocs = make(map[string]float64)
	for i, s := range t.spans {
		name := s.Name
		if s.Parent < 0 {
			name = "unattributed"
		}
		secs[name] += float64(s.DurNS-childNS[i]) / 1e9
		allocs[name] += float64(s.Allocs) - float64(childAllocs[i])
	}
	return secs, allocs
}

// opSeconds is the summed duration of the op spans: the traced
// counterpart of the untraced pass's op time.
func (t *tracer) opSeconds() float64 {
	var ns int64
	for _, s := range t.spans {
		if s.Parent < 0 {
			ns += s.DurNS
		}
	}
	return float64(ns) / 1e9
}

// writeSpans saves spans and the run's stamp as JSON.
func writeSpans(path string, stamp map[string]any, spans []span) error {
	b, err := json.Marshal(map[string]any{"stamp": stamp, "spans": spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
