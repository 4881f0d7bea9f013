// Package obs is the observability layer of the prediction framework
// itself. The paper's Output Module profiles the *interpreted program*
// per AAU, per sub-graph and per source line (§5); this package applies
// the same idea to the predictor: per-request traces decompose a
// prediction's latency into compile / analyze / interpret / execute /
// sweep phases, and structured logs correlate them with request IDs.
//
// The package is stdlib-only and dependency-free within the module (it
// sits below compiler, core, exec, sweep and server, all of which open
// spans through it). Tracing is opt-in per context: when no span is
// active, Start and the nil-safe Span methods cost one nil check, so
// hot paths are unaffected by the instrumentation.
//
// Span taxonomy (see DESIGN.md §11):
//
//	server.<route>   one API request (root)
//	cache.lookup     sweep-cache probe (attrs: kind, outcome)
//	compile          phase-1 compilation; children parse, sem, comm-insert
//	partition        directive resolution inside sem
//	analyze          static-analysis passes
//	interp           one prediction (compiled form, traced or not)
//	core.compile     closure lowering; children calibrate, core.saag
//	calibrate        off-line collective calibration
//	core.saag        SAAG build
//	analysis.trace   definition tracer (memo miss only)
//	interp.<kind>    one AAU evaluation (attr line; replay=true when a
//	                 top-level subtree is served from the memo)
//	exec.vm          simulated execution
//	sweep.point      one point of a parallel sweep
package obs

import (
	"crypto/rand"
	"encoding/hex"
	"sort"
	"strconv"
	"sync"
	"time"
)

// Tracer collects the spans of one trace. It is safe for concurrent use:
// sweep workers sharing a request context append spans from several
// goroutines.
type Tracer struct {
	mu      sync.Mutex
	traceID string
	start   time.Time
	spans   []*Span
	nextID  int
}

// NewTracer returns an empty tracer for the given trace ID (use
// NewTraceID for a fresh W3C-compatible one).
func NewTracer(traceID string) *Tracer {
	return &Tracer{traceID: traceID, start: time.Now()}
}

// TraceID returns the tracer's identity.
func (t *Tracer) TraceID() string { return t.traceID }

// Span is one named, timed region of a trace. All methods are safe on a
// nil receiver, which is what an untraced context hands out: disabled
// tracing is a nil check, not a branchy fast path.
type Span struct {
	tr     *Tracer
	id     int
	parent int // 0 = no parent (root)
	name   string
	start  time.Time
	durUS  float64
	ended  bool
	attrs  map[string]string
}

func (t *Tracer) newSpan(name string, parent int) *Span {
	s := &Span{tr: t, parent: parent, name: name, start: time.Now()}
	t.mu.Lock()
	t.nextID++
	s.id = t.nextID
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Root opens the trace's root span. A well-formed trace has exactly one.
func (t *Tracer) Root(name string) *Span { return t.newSpan(name, 0) }

// StartChild opens a child span. Nil-safe: on an untraced path it
// returns nil, and every Span method tolerates that.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	return s.tr.newSpan(name, s.id)
}

// End closes the span, fixing its duration. Ending twice keeps the
// first duration.
func (s *Span) End() {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if !s.ended {
		s.ended = true
		s.durUS = float64(time.Since(s.start)) / float64(time.Microsecond)
	}
	s.tr.mu.Unlock()
}

// SetAttr attaches a key attribute (source hash, procs, distribution,
// cache outcome, retry count ...).
func (s *Span) SetAttr(key, val string) {
	if s == nil {
		return
	}
	s.tr.mu.Lock()
	if s.attrs == nil {
		s.attrs = make(map[string]string, 4)
	}
	s.attrs[key] = val
	s.tr.mu.Unlock()
}

// SetAttrInt is SetAttr for integer values.
func (s *Span) SetAttrInt(key string, val int) {
	if s == nil {
		return
	}
	s.SetAttr(key, strconv.Itoa(val))
}

// Active reports whether the span records anything (false on nil).
func (s *Span) Active() bool { return s != nil }

// ---------------------------------------------------------------------------
// Span tree (the JSON surface: X-HPF-Trace responses, -trace-out files,
// /v1/traces ring entries, and the input of the gantt renderer).

// Node is one span rendered into the trace tree.
type Node struct {
	Name     string            `json:"name"`
	StartUS  float64           `json:"start_us"`
	DurUS    float64           `json:"dur_us"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*Node           `json:"children,omitempty"`
}

// Walk visits the node and its descendants depth-first.
func (n *Node) Walk(f func(depth int, n *Node)) {
	var rec func(depth int, n *Node)
	rec = func(depth int, n *Node) {
		f(depth, n)
		for _, c := range n.Children {
			rec(depth+1, c)
		}
	}
	rec(0, n)
}

// Tree is a complete trace: the root span with its descendants plus
// integrity counters (a well-formed trace has Orphans == 0 and exactly
// the advertised span count).
type Tree struct {
	TraceID string  `json:"trace_id"`
	Spans   int     `json:"spans"`
	Orphans int     `json:"orphans,omitempty"`
	DurUS   float64 `json:"dur_us"`
	Root    *Node   `json:"root"`
}

// Tree renders the tracer's spans as a tree. Span start times are
// offsets (µs) from the trace start. Unended spans are closed at the
// rendering instant. Spans whose parent was never recorded count as
// orphans and are attached under the root so no timing is lost.
func (t *Tracer) Tree() *Tree {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := &Tree{TraceID: t.traceID, Spans: len(t.spans)}
	if len(t.spans) == 0 {
		return out
	}
	nodes := make(map[int]*Node, len(t.spans))
	spans := make([]*Span, len(t.spans))
	copy(spans, t.spans)
	sort.Slice(spans, func(i, j int) bool { return spans[i].id < spans[j].id })
	for _, s := range spans {
		dur := s.durUS
		if !s.ended {
			dur = float64(time.Since(s.start)) / float64(time.Microsecond)
		}
		n := &Node{
			Name:    s.name,
			StartUS: float64(s.start.Sub(t.start)) / float64(time.Microsecond),
			DurUS:   dur,
		}
		if len(s.attrs) > 0 {
			n.Attrs = make(map[string]string, len(s.attrs))
			for k, v := range s.attrs {
				n.Attrs[k] = v
			}
		}
		nodes[s.id] = n
	}
	var root *Node
	var orphaned []*Node
	for _, s := range spans {
		n := nodes[s.id]
		switch {
		case s.parent == 0 && root == nil:
			root = n
		case s.parent == 0:
			out.Orphans++
			orphaned = append(orphaned, n)
		default:
			p, ok := nodes[s.parent]
			if !ok {
				out.Orphans++
				orphaned = append(orphaned, n)
				break
			}
			p.Children = append(p.Children, n)
		}
	}
	if root == nil {
		// Degenerate trace: every span was an orphan. Surface them under
		// a synthetic root rather than dropping the data.
		root = &Node{Name: "(orphans)"}
	}
	root.Children = append(root.Children, orphaned...)
	out.Root = root
	out.DurUS = root.DurUS
	return out
}

// ---------------------------------------------------------------------------
// ID generation (W3C trace-context compatible widths).

func randHex(nBytes int) string {
	b := make([]byte, nBytes)
	if _, err := rand.Read(b); err != nil {
		// crypto/rand failing is unrecoverable for the process anyway;
		// degrade to a constant non-zero ID rather than panicking a
		// serving path.
		for i := range b {
			b[i] = 0xab
		}
	}
	return hex.EncodeToString(b)
}

// NewTraceID returns a 16-byte (32 hex digit) trace ID.
func NewTraceID() string { return randHex(16) }

// NewSpanID returns an 8-byte (16 hex digit) span/request ID.
func NewSpanID() string { return randHex(8) }
